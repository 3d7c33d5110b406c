package cloud

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudless/internal/eval"
)

func newTestSim() *Sim {
	opts := DefaultOptions()
	opts.DisableRateLimit = true
	return NewSim(opts)
}

func mustCreate(t *testing.T, s Interface, typ, region string, attrs map[string]eval.Value) *Resource {
	t.Helper()
	r, err := s.Create(context.Background(), CreateRequest{
		Type: typ, Region: region, Attrs: attrs, Principal: "test",
	})
	if err != nil {
		t.Fatalf("create %s: %s", typ, err)
	}
	return r
}

func vpcAttrs(name string) map[string]eval.Value {
	return map[string]eval.Value{
		"name":       eval.String(name),
		"cidr_block": eval.String("10.0.0.0/16"),
	}
}

func TestCreateAssignsComputedAttributes(t *testing.T) {
	s := newTestSim()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("main"))
	if vpc.ID == "" || !strings.HasPrefix(vpc.ID, "vpc-") {
		t.Errorf("id = %q", vpc.ID)
	}
	if vpc.Attr("id").AsString() != vpc.ID {
		t.Error("id attribute not set")
	}
	if !strings.Contains(vpc.Attr("arn").AsString(), vpc.ID) {
		t.Errorf("arn = %v", vpc.Attr("arn"))
	}
	// Defaults applied.
	if !vpc.Attr("enable_dns").Equal(eval.True) {
		t.Errorf("enable_dns default = %v", vpc.Attr("enable_dns"))
	}
	if vpc.Generation != 1 {
		t.Errorf("generation = %d", vpc.Generation)
	}
}

func TestCreateRejectsMissingRequired(t *testing.T) {
	s := newTestSim()
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("x")},
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalid {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(ae.Message, "cidr_block") {
		t.Errorf("message = %q", ae.Message)
	}
}

func TestCreateRejectsUnknownTypeRegionAttr(t *testing.T) {
	s := newTestSim()
	ctx := context.Background()
	if _, err := s.Create(ctx, CreateRequest{Type: "gcp_thing"}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := s.Create(ctx, CreateRequest{Type: "aws_vpc", Region: "mars-north-1", Attrs: vpcAttrs("x")}); err == nil {
		t.Error("unknown region accepted")
	}
	attrs := vpcAttrs("y")
	attrs["bogus"] = eval.Int(1)
	if _, err := s.Create(ctx, CreateRequest{Type: "aws_vpc", Region: "us-east-1", Attrs: attrs}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestCreateRejectsBadEnumValue(t *testing.T) {
	s := newTestSim()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("v"))
	subnet := mustCreate(t, s, "aws_subnet", "us-east-1", map[string]eval.Value{
		"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24"),
	})
	nic := mustCreate(t, s, "aws_network_interface", "us-east-1", map[string]eval.Value{
		"subnet_id": eval.String(subnet.ID),
	})
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "aws_virtual_machine", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"name":          eval.String("vm"),
			"nic_ids":       eval.Strings(nic.ID),
			"instance_type": eval.String("t9.mega"),
		},
	})
	if err == nil || !strings.Contains(err.Error(), "t9.mega") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateNameConflict(t *testing.T) {
	s := newTestSim()
	mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("dup"))
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("dup"),
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Fatalf("err = %v", err)
	}
	// Same name in another region is fine.
	mustCreate(t, s, "aws_vpc", "us-west-2", map[string]eval.Value{
		"name": eval.String("dup"), "cidr_block": eval.String("10.1.0.0/16"),
	})
}

// TestCrossRegionReferenceReproducesPaperError reproduces the paper's §3.5
// example: a VM whose NIC lives in a different region fails with a
// misleading "NIC is not found" message, even though the NIC exists.
func TestCrossRegionReferenceReproducesPaperError(t *testing.T) {
	s := newTestSim()
	rg := mustCreate(t, s, "azure_resource_group", "westus", map[string]eval.Value{
		"name": eval.String("rg"), "location": eval.String("westus"),
	})
	vnet := mustCreate(t, s, "azure_virtual_network", "westus", map[string]eval.Value{
		"name": eval.String("vnet"), "resource_group": eval.String(rg.ID),
		"address_space": eval.Strings("10.0.0.0/16"),
	})
	subnet := mustCreate(t, s, "azure_subnet", "westus", map[string]eval.Value{
		"virtual_network_id": eval.String(vnet.ID), "address_prefix": eval.String("10.0.1.0/24"),
	})
	nic := mustCreate(t, s, "azure_network_interface", "westus", map[string]eval.Value{
		"name": eval.String("nic"), "subnet_id": eval.String(subnet.ID),
	})
	// VM in a DIFFERENT region referencing the westus NIC.
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "azure_virtual_machine", Region: "eastus",
		Attrs: map[string]eval.Value{
			"name":    eval.String("vm1"),
			"nic_ids": eval.Strings(nic.ID),
		},
	})
	if err == nil {
		t.Fatal("cross-region NIC reference must fail at deploy time")
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Errorf("expected the misleading 'not found' cloud error, got: %s", err)
	}
}

func TestPasswordCoRequirementEnforced(t *testing.T) {
	s := newTestSim()
	rg := mustCreate(t, s, "azure_resource_group", "eastus", map[string]eval.Value{
		"name": eval.String("rg"), "location": eval.String("eastus"),
	})
	vnet := mustCreate(t, s, "azure_virtual_network", "eastus", map[string]eval.Value{
		"name": eval.String("v"), "resource_group": eval.String(rg.ID),
		"address_space": eval.Strings("10.0.0.0/16"),
	})
	subnet := mustCreate(t, s, "azure_subnet", "eastus", map[string]eval.Value{
		"virtual_network_id": eval.String(vnet.ID), "address_prefix": eval.String("10.0.1.0/24"),
	})
	nic := mustCreate(t, s, "azure_network_interface", "eastus", map[string]eval.Value{
		"name": eval.String("n"), "subnet_id": eval.String(subnet.ID),
	})
	// Password without disable_password=false must fail (default is true).
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "azure_virtual_machine", Region: "eastus",
		Attrs: map[string]eval.Value{
			"name":           eval.String("vm"),
			"nic_ids":        eval.Strings(nic.ID),
			"admin_password": eval.String("hunter2"),
		},
	})
	if err == nil || !strings.Contains(err.Error(), "disable_password") {
		t.Fatalf("err = %v", err)
	}
	// With the co-requirement satisfied it succeeds.
	mustCreate(t, s, "azure_virtual_machine", "eastus", map[string]eval.Value{
		"name":             eval.String("vm"),
		"nic_ids":          eval.Strings(nic.ID),
		"admin_password":   eval.String("hunter2"),
		"disable_password": eval.False,
	})
}

func TestPeeringCIDROverlapRejected(t *testing.T) {
	s := newTestSim()
	rg := mustCreate(t, s, "azure_resource_group", "eastus", map[string]eval.Value{
		"name": eval.String("rg"), "location": eval.String("eastus"),
	})
	mk := func(name, cidr string) *Resource {
		return mustCreate(t, s, "azure_virtual_network", "eastus", map[string]eval.Value{
			"name": eval.String(name), "resource_group": eval.String(rg.ID),
			"address_space": eval.Strings(cidr),
		})
	}
	a := mk("a", "10.0.0.0/16")
	b := mk("b", "10.0.128.0/17") // overlaps a
	c := mk("c", "10.1.0.0/16")   // disjoint
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "azure_vnet_peering", Region: "eastus",
		Attrs: map[string]eval.Value{
			"vnet_a_id": eval.String(a.ID), "vnet_b_id": eval.String(b.ID),
		},
	})
	if err == nil || !strings.Contains(err.Error(), "verlap") {
		t.Fatalf("overlapping peering accepted: %v", err)
	}
	mustCreate(t, s, "azure_vnet_peering", "eastus", map[string]eval.Value{
		"vnet_a_id": eval.String(a.ID), "vnet_b_id": eval.String(c.ID),
	})
}

func TestSubnetCIDRWithinVPC(t *testing.T) {
	s := newTestSim()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("v"))
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "aws_subnet", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("192.168.0.0/24"),
		},
	})
	if err == nil {
		t.Fatal("out-of-range subnet accepted")
	}
}

func TestUpdateLifecycle(t *testing.T) {
	s := newTestSim()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("v"))
	upd, err := s.Update(context.Background(), UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs:     map[string]eval.Value{"enable_dns": eval.False},
		Principal: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !upd.Attr("enable_dns").Equal(eval.False) || upd.Generation != 2 {
		t.Errorf("update result: %v gen=%d", upd.Attr("enable_dns"), upd.Generation)
	}
	// ForceNew attribute cannot be updated in place.
	_, err = s.Update(context.Background(), UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"cidr_block": eval.String("10.9.0.0/16")},
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Fatalf("force-new update: %v", err)
	}
	// Computed attribute cannot be written.
	_, err = s.Update(context.Background(), UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"id": eval.String("vpc-hax")},
	})
	if err == nil {
		t.Error("computed attribute write accepted")
	}
}

func TestDeleteDependencyViolation(t *testing.T) {
	s := newTestSim()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("v"))
	subnet := mustCreate(t, s, "aws_subnet", "us-east-1", map[string]eval.Value{
		"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24"),
	})
	err := s.Delete(context.Background(), "aws_vpc", vpc.ID, "test")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeConflict {
		t.Fatalf("expected DependencyViolation, got %v", err)
	}
	if err := s.Delete(context.Background(), "aws_subnet", subnet.ID, "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "aws_vpc", vpc.ID, "test"); err != nil {
		t.Fatalf("delete after removing dependent: %v", err)
	}
	if _, err := s.Get(context.Background(), "aws_vpc", vpc.ID); !IsNotFound(err) {
		t.Errorf("get after delete = %v", err)
	}
}

func TestActivityLog(t *testing.T) {
	s := newTestSim()
	ctx := context.Background()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("v"))
	_, _ = s.Update(ctx, UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "legacy-script"})
	_ = s.Delete(ctx, "aws_vpc", vpc.ID, "test")

	events, err := s.Activity(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Op != OpCreate || events[1].Op != OpUpdate || events[2].Op != OpDelete {
		t.Errorf("ops = %v %v %v", events[0].Op, events[1].Op, events[2].Op)
	}
	if events[1].Principal != "legacy-script" {
		t.Errorf("principal = %q", events[1].Principal)
	}
	if len(events[1].Changed) != 1 || events[1].Changed[0] != "enable_dns" {
		t.Errorf("changed = %v", events[1].Changed)
	}
	// Incremental polling.
	tail, _ := s.Activity(ctx, events[1].Seq)
	if len(tail) != 1 || tail[0].Op != OpDelete {
		t.Errorf("tail = %v", tail)
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableRateLimit = true
	opts.FailureRate = 0.5
	opts.Seed = 42
	run := func() []bool {
		s := NewSim(opts)
		var outcomes []bool
		for i := 0; i < 20; i++ {
			_, err := s.Create(context.Background(), CreateRequest{
				Type: "aws_vpc", Region: "us-east-1",
				Attrs: map[string]eval.Value{
					"name":       eval.String(fmt.Sprintf("v%d", i)),
					"cidr_block": eval.String("10.0.0.0/16"),
				},
			})
			outcomes = append(outcomes, err == nil)
			if err != nil && !IsRetryable(err) {
				t.Fatalf("injected failure must be retryable: %v", err)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("failure injection not deterministic under a fixed seed")
		}
	}
	saw := false
	for _, ok := range a {
		if !ok {
			saw = true
		}
	}
	if !saw {
		t.Error("no failures injected at rate 0.5")
	}
}

func TestQuotaEnforced(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableRateLimit = true
	opts.QuotaPerTypeRegion = 3
	s := NewSim(opts)
	for i := 0; i < 3; i++ {
		mustCreate(t, s, "aws_vpc", "us-east-1", map[string]eval.Value{
			"name": eval.String(fmt.Sprintf("v%d", i)), "cidr_block": eval.String("10.0.0.0/16"),
		})
	}
	_, err := s.Create(context.Background(), CreateRequest{
		Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("v3"), "cidr_block": eval.String("10.0.0.0/16")},
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeQuota {
		t.Fatalf("err = %v", err)
	}
}

func TestRateLimiterThrottles(t *testing.T) {
	l := newRateLimiter(10, 2)
	if !l.Allow() || !l.Allow() {
		t.Fatal("burst tokens missing")
	}
	if l.Allow() {
		t.Fatal("limiter over-admitted")
	}
	start := time.Now()
	waited, err := l.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if waited == 0 && time.Since(start) < 10*time.Millisecond {
		t.Error("Wait returned without waiting for a token")
	}
}

func TestRateLimiterWaitCancel(t *testing.T) {
	l := newRateLimiter(0.1, 1)
	l.Allow()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.Wait(ctx); err == nil {
		t.Fatal("Wait must respect cancellation")
	}
}

func TestSimRateLimitingMetrics(t *testing.T) {
	opts := DefaultOptions()
	opts.RateLimitOverride = 50
	s := NewSim(opts)
	ctx := context.Background()
	for i := 0; i < 150; i++ {
		_, _ = s.Get(ctx, "aws_vpc", "nope") // misses are fine; they still hit the limiter
	}
	m := s.Metrics()
	if m.Throttled == 0 || m.ThrottleWait == 0 {
		t.Errorf("expected throttling at 150 calls against 50 rps: %+v", m)
	}
	if m.Calls != 150 {
		t.Errorf("calls = %d", m.Calls)
	}
}

func TestConcurrentCreates(t *testing.T) {
	s := newTestSim()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Create(context.Background(), CreateRequest{
				Type: "aws_vpc", Region: "us-east-1",
				Attrs: map[string]eval.Value{
					"name":       eval.String(fmt.Sprintf("v%02d", i)),
					"cidr_block": eval.String("10.0.0.0/16"),
				},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %s", i, err)
		}
	}
	if s.Count("aws_vpc") != 32 {
		t.Errorf("count = %d", s.Count("aws_vpc"))
	}
	// IDs must be unique.
	list, _ := s.List(context.Background(), "aws_vpc", "")
	seen := map[string]bool{}
	for _, r := range list {
		if seen[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestListByRegion(t *testing.T) {
	s := newTestSim()
	mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("a"))
	mustCreate(t, s, "aws_vpc", "us-west-2", map[string]eval.Value{
		"name": eval.String("b"), "cidr_block": eval.String("10.1.0.0/16"),
	})
	east, _ := s.List(context.Background(), "aws_vpc", "us-east-1")
	all, _ := s.List(context.Background(), "aws_vpc", "")
	if len(east) != 1 || len(all) != 2 {
		t.Errorf("east=%d all=%d", len(east), len(all))
	}
}

func TestProvisioningLatencyScales(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0.0005 // 15s VPC create -> ~7.5ms
	opts.ReadLatency = 0
	s := NewSim(opts)
	start := time.Now()
	mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("v"))
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond {
		t.Errorf("latency model not applied: %v", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("latency model mis-scaled: %v", elapsed)
	}
}

func TestDataSourceCannotBeCreated(t *testing.T) {
	s := newTestSim()
	_, err := s.Create(context.Background(), CreateRequest{Type: "aws_region", Region: "us-east-1"})
	if err == nil {
		t.Fatal("data source create accepted")
	}
}

func TestIdempotentCreateReplay(t *testing.T) {
	s := newTestSim()
	ctx := context.Background()
	req := CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("idem"),
		Principal: "test", IdempotencyKey: "job-1/aws_vpc.idem",
	}
	first, err := s.Create(ctx, req)
	if err != nil {
		t.Fatalf("create: %s", err)
	}
	// A retry of the same request must return the original resource, not a
	// duplicate — even though the name now "conflicts" with itself.
	second, err := s.Create(ctx, req)
	if err != nil {
		t.Fatalf("replay: %s", err)
	}
	if second.ID != first.ID {
		t.Errorf("replay returned %s, want %s", second.ID, first.ID)
	}
	if s.Count("aws_vpc") != 1 {
		t.Errorf("count = %d, want 1", s.Count("aws_vpc"))
	}
	m := s.Metrics()
	if m.Creates != 1 || m.IdemReplays != 1 {
		t.Errorf("creates=%d idem_replays=%d, want 1/1", m.Creates, m.IdemReplays)
	}
	// Only one create event: a replay is not a second provisioning.
	events, _ := s.Activity(ctx, 0)
	if len(events) != 1 {
		t.Errorf("%d activity events, want 1", len(events))
	}

	// A different key with a different name provisions a fresh resource.
	other := req
	other.IdempotencyKey = "job-1/aws_vpc.other"
	other.Attrs = vpcAttrs("other")
	third, err := s.Create(ctx, other)
	if err != nil {
		t.Fatalf("different key: %s", err)
	}
	if third.ID == first.ID {
		t.Error("different key replayed the first resource")
	}

	// After the keyed resource is deleted, the same key provisions anew.
	if err := s.Delete(ctx, "aws_vpc", first.ID, "test"); err != nil {
		t.Fatalf("delete: %s", err)
	}
	fresh, err := s.Create(ctx, req)
	if err != nil {
		t.Fatalf("recreate: %s", err)
	}
	if fresh.ID == first.ID {
		t.Error("key replayed a deleted resource")
	}
}

func TestInjectCrashBeforeOp(t *testing.T) {
	s := newTestSim()
	ctx := context.Background()
	fired := false
	s.InjectCrash(CrashBeforeOp, 1, func() { fired = true })
	_, err := s.Create(ctx, CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("c"), Principal: "test",
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !fired {
		t.Error("crash callback did not fire")
	}
	// Before-op crash: nothing mutated, nothing logged.
	if s.Count("aws_vpc") != 0 {
		t.Errorf("count = %d, want 0", s.Count("aws_vpc"))
	}
	if s.LastSeq() != 0 {
		t.Errorf("activity seq = %d, want 0", s.LastSeq())
	}
	// The injection is one-shot: the retry succeeds.
	mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("c"))
}

func TestInjectCrashAfterOpLeavesInDoubtResource(t *testing.T) {
	s := newTestSim()
	ctx := context.Background()
	s.InjectCrash(CrashAfterOp, 2, nil) // fire on the second mutating op
	mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("a"))
	_, err := s.Create(ctx, CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("b"),
		Principal: "test", IdempotencyKey: "k-b",
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// After-op crash: the mutation is durable server-side (the in-doubt
	// case) and visible in the activity log...
	if s.Count("aws_vpc") != 2 {
		t.Errorf("count = %d, want 2", s.Count("aws_vpc"))
	}
	events, _ := s.Activity(ctx, 0)
	if len(events) != 2 {
		t.Fatalf("%d activity events, want 2", len(events))
	}
	// ...and an idempotent retry recovers the resource the response lost.
	got, err := s.Create(ctx, CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("b"),
		Principal: "test", IdempotencyKey: "k-b",
	})
	if err != nil {
		t.Fatalf("retry: %s", err)
	}
	if got.ID != events[1].ID {
		t.Errorf("retry returned %s, want the in-doubt resource %s", got.ID, events[1].ID)
	}
}

func TestInjectCrashDuringDelete(t *testing.T) {
	s := newTestSim()
	ctx := context.Background()
	vpc := mustCreate(t, s, "aws_vpc", "us-east-1", vpcAttrs("d"))
	s.InjectCrash(CrashAfterOp, 1, nil)
	err := s.Delete(ctx, "aws_vpc", vpc.ID, "test")
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// Deletion went through server-side; the retry sees 404, which a
	// crash-safe applier must tolerate.
	if s.Count("aws_vpc") != 0 {
		t.Errorf("count = %d, want 0", s.Count("aws_vpc"))
	}
	if err := s.Delete(ctx, "aws_vpc", vpc.ID, "test"); !IsNotFound(err) {
		t.Errorf("retry err = %v, want 404", err)
	}
}

// TestGenerationMovesWithEveryAttrsChange: with provisioning and update
// latency on, a reader polling a resource never sees two attribute sets
// under one generation (the creating -> running transition and a read in
// the middle of an update's sleep included), and a rejected update changes
// neither attributes nor generation.
func TestGenerationMovesWithEveryAttrsChange(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableRateLimit = true
	opts.EnforceConstraints = false
	opts.TimeScale = 0.0005 // VM: 90s create -> 45ms, 30s update -> 15ms
	opts.ReadLatency = 0
	s := NewSim(opts)
	ctx := context.Background()

	seen := map[int]uint64{} // generation -> hash of the attributes read at it
	observe := func(r *Resource) {
		h := eval.Object(r.Attrs).Hash()
		if prev, ok := seen[r.Generation]; ok && prev != h {
			t.Errorf("generation %d read with two attribute sets (now %v)", r.Generation, r.Attrs)
		}
		seen[r.Generation] = h
	}
	// poll reads every VM until op returns, then once more.
	poll := func(op func() error) {
		done := make(chan error, 1)
		go func() { done <- op() }()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				rs, err := s.List(ctx, "aws_virtual_machine", "")
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					observe(r)
				}
				return
			default:
			}
			rs, err := s.List(ctx, "aws_virtual_machine", "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				observe(r)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var vm *Resource
	poll(func() (err error) {
		vm, err = s.Create(ctx, CreateRequest{Type: "aws_virtual_machine", Region: "us-east-1",
			Attrs: map[string]eval.Value{"name": eval.String("web"), "nic_ids": eval.Strings("nic-1")}})
		return err
	})
	if len(seen) < 2 {
		t.Fatalf("polling saw generations %v; want the provisioning one and the running one", seen)
	}
	poll(func() error {
		_, err := s.Update(ctx, UpdateRequest{Type: vm.Type, ID: vm.ID,
			Attrs: map[string]eval.Value{"name": eval.String("web-2")}})
		return err
	})
	before, err := s.Get(ctx, vm.Type, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctx, UpdateRequest{Type: vm.Type, ID: vm.ID,
		Attrs: map[string]eval.Value{"name": eval.String("web-3"), "id": eval.String("vm-hax")}}); err == nil {
		t.Fatal("update of a computed attribute accepted")
	}
	after, err := s.Get(ctx, vm.Type, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != before.Generation || !eval.Object(after.Attrs).Equal(eval.Object(before.Attrs)) {
		t.Errorf("rejected update changed the resource: gen %d -> %d, name %v -> %v",
			before.Generation, after.Generation, before.Attr("name"), after.Attr("name"))
	}
}
