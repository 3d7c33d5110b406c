package drift

import (
	"context"
	"fmt"
	"testing"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/state"
)

const baseConfig = `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "s" {
  name       = "s"
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
`

// deployBase stands up the base configuration and returns sim + state.
func deployBase(t *testing.T) (*cloud.Sim, *state.State) {
	t.Helper()
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	m, diags := config.Load(map[string]string{"main.ccl": baseConfig})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return sim, res.State
}

func TestFullScanCleanInfrastructure(t *testing.T) {
	sim, st := deployBase(t)
	rep, err := FullScan(context.Background(), sim, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasDrift() {
		t.Fatalf("clean infra reported drift: %+v", rep.Items)
	}
	// The scan burned one List per (type, region) pair.
	if rep.APICalls < 50 {
		t.Errorf("full scan used only %d API calls; expected a full type×region sweep", rep.APICalls)
	}
}

func TestFullScanDetectsAllDriftKinds(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()

	// Modified out-of-band.
	vpc := st.Get("aws_vpc.main")
	if _, err := sim.Update(ctx, cloud.UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs:     map[string]eval.Value{"enable_dns": eval.False},
		Principal: "legacy-script",
	}); err != nil {
		t.Fatal(err)
	}
	// Deleted out-of-band.
	sub := st.Get("aws_subnet.s")
	if err := sim.Delete(ctx, "aws_subnet", sub.ID, "legacy-script"); err != nil {
		t.Fatal(err)
	}
	// Created out-of-band (unmanaged).
	if _, err := sim.Create(ctx, cloud.CreateRequest{
		Type: "aws_storage_bucket", Region: "us-east-1",
		Attrs:     map[string]eval.Value{"name": eval.String("rogue")},
		Principal: "legacy-script",
	}); err != nil {
		t.Fatal(err)
	}

	rep, err := FullScan(ctx, sim, st)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, it := range rep.Items {
		kinds[it.Kind]++
	}
	if kinds[Modified] != 1 || kinds[Deleted] != 1 || kinds[Unmanaged] != 1 {
		t.Fatalf("kinds = %v, items = %+v", kinds, rep.Items)
	}
	for _, it := range rep.Items {
		if it.Kind == Modified {
			if len(it.ChangedAttrs) != 1 || it.ChangedAttrs[0] != "enable_dns" {
				t.Errorf("changed attrs = %v", it.ChangedAttrs)
			}
		}
	}
}

func TestWatcherDetectsDriftWithAttribution(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()
	w := NewWatcher(sim, "cloudless", sim.LastSeq())

	// No drift yet.
	rep, err := w.Poll(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasDrift() {
		t.Fatalf("unexpected drift: %+v", rep.Items)
	}

	vpc := st.Get("aws_vpc.main")
	if _, err := sim.Update(ctx, cloud.UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs:     map[string]eval.Value{"enable_dns": eval.False},
		Principal: "team-networking",
	}); err != nil {
		t.Fatal(err)
	}

	rep, err = w.Poll(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != 1 {
		t.Fatalf("items = %+v", rep.Items)
	}
	it := rep.Items[0]
	if it.Kind != Modified || it.Addr != "aws_vpc.main" || it.Actor != "team-networking" {
		t.Errorf("item = %+v", it)
	}
	// The watcher spent one targeted Get, not a world scan.
	if it2 := rep.APICalls; it2 != 1 {
		t.Errorf("API calls = %d, want 1", it2)
	}
	// Cursor advanced: re-polling finds nothing new.
	rep, _ = w.Poll(ctx, st)
	if rep.HasDrift() {
		t.Error("drift reported twice for the same event")
	}
}

func TestWatcherIgnoresOwnChanges(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()
	w := NewWatcher(sim, "cloudless", sim.LastSeq())
	vpc := st.Get("aws_vpc.main")
	if _, err := sim.Update(ctx, cloud.UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs:     map[string]eval.Value{"enable_dns": eval.False},
		Principal: "cloudless", // our own apply
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := w.Poll(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasDrift() {
		t.Fatalf("own change reported as drift: %+v", rep.Items)
	}
}

func TestWatcherCoalescesAndDetectsDeletion(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()
	w := NewWatcher(sim, "cloudless", sim.LastSeq())
	sub := st.Get("aws_subnet.s")
	// Update then delete: only the deletion should surface.
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_subnet", ID: sub.ID,
		Attrs: map[string]eval.Value{"name": eval.String("x")}, Principal: "ops"})
	_ = sim.Delete(ctx, "aws_subnet", sub.ID, "ops")
	rep, err := w.Poll(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != 1 || rep.Items[0].Kind != Deleted {
		t.Fatalf("items = %+v", rep.Items)
	}
}

func TestReconcileAdopt(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()
	vpc := st.Get("aws_vpc.main")
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "ops"})

	rep, _ := FullScan(ctx, sim, st)
	res := Reconcile(st, rep, AdoptAll)
	if len(res.Adopted) != 1 {
		t.Fatalf("adopted = %v errs = %v", res.Adopted, res.Errors)
	}
	if !res.State.Get("aws_vpc.main").Attr("enable_dns").Equal(eval.False) {
		t.Error("state did not adopt the cloud value")
	}
	// After adoption, a rescan is clean.
	rep2, _ := FullScan(ctx, sim, res.State)
	if rep2.HasDrift() {
		t.Errorf("drift remains after adopt: %+v", rep2.Items)
	}
}

// TestReconcilePlansRevertsWithoutTheCloud: Reconcile only plans the cloud
// writes a revert needs — an update back to the recorded values — and
// leaves them to the applier. The unmanaged resource is notified, not
// deleted: it may be another project's.
func TestReconcilePlansRevertsWithoutTheCloud(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()
	vpc := st.Get("aws_vpc.main")
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "ops"})
	rogue, err := sim.Create(ctx, cloud.CreateRequest{
		Type: "aws_storage_bucket", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("rogue")}, Principal: "ops",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := FullScan(ctx, sim, st)
	calls := sim.Metrics().Calls
	res := Reconcile(st, rep, RevertAll)
	if got := sim.Metrics().Calls; got != calls {
		t.Errorf("Reconcile made %d cloud calls", got-calls)
	}
	if len(res.Reverted) != 0 || len(res.Reverts) != 1 {
		t.Fatalf("reverted = %v, reverts = %+v", res.Reverted, res.Reverts)
	}
	if ch := res.Reverts[0]; ch.Addr != "aws_vpc.main" || ch.Action != plan.ActionUpdate ||
		ch.ID != vpc.ID || !ch.After["enable_dns"].Equal(eval.True) {
		t.Errorf("vpc revert = %+v", ch)
	}
	if fmt.Sprint(res.Notified) != fmt.Sprintf("[%s]", rogue.ID) {
		t.Errorf("notified = %v, want the unmanaged %s", res.Notified, rogue.ID)
	}
}

func TestFullScanVsWatcherAPICost(t *testing.T) {
	// The E7 claim in miniature: for one drift event, the log watcher
	// spends ~1 API call; the full scan spends hundreds.
	sim, st := deployBase(t)
	ctx := context.Background()
	w := NewWatcher(sim, "cloudless", sim.LastSeq())
	vpc := st.Get("aws_vpc.main")
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "ops"})

	scan, _ := FullScan(ctx, sim, st)
	watch, _ := w.Poll(ctx, st)
	if len(scan.Items) != 1 || len(watch.Items) != 1 {
		t.Fatalf("both must find the drift: scan=%d watch=%d", len(scan.Items), len(watch.Items))
	}
	if watch.APICalls*10 > scan.APICalls {
		t.Errorf("watcher (%d calls) should be >10x cheaper than scan (%d calls)",
			watch.APICalls, scan.APICalls)
	}
}

// TestWatcherPollBatchesVerifyingGets: a poll that has to verify many
// foreign events must spend one batched call per MaxBatchItems chunk, not
// one Get per event.
func TestWatcherPollBatchesVerifyingGets(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	ctx := context.Background()

	// 30 managed VPCs.
	st := state.New()
	ids := make([]string, 30)
	for i := range ids {
		res, err := sim.Create(ctx, cloud.CreateRequest{
			Type: "aws_vpc", Region: "us-east-1",
			Attrs: map[string]eval.Value{
				"name":       eval.String(fmt.Sprintf("v-%d", i)),
				"cidr_block": eval.String("10.0.0.0/16"),
			},
			Principal: "cloudless",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
		st.Set(&state.ResourceState{
			Addr: fmt.Sprintf("aws_vpc.v[%d]", i), Type: "aws_vpc",
			ID: res.ID, Region: res.Region, Attrs: res.Attrs,
		})
	}
	w := NewWatcher(sim, "cloudless", sim.LastSeq())

	// A foreign principal touches every one of them.
	for _, id := range ids {
		if _, err := sim.Update(ctx, cloud.UpdateRequest{
			Type: "aws_vpc", ID: id,
			Attrs:     map[string]eval.Value{"enable_dns": eval.False},
			Principal: "legacy-script",
		}); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := w.Poll(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != len(ids) {
		t.Fatalf("items = %d, want %d", len(rep.Items), len(ids))
	}
	for _, it := range rep.Items {
		if it.Kind != Modified || it.Actor != "legacy-script" {
			t.Errorf("item = %+v", it)
		}
	}
	// 30 verifications in one batched call (sim implements BatchGetter).
	if rep.APICalls != 1 {
		t.Errorf("poll spent %d API calls verifying %d events, want 1", rep.APICalls, len(ids))
	}
	if got := sim.Metrics().BatchItems; got != int64(len(ids)) {
		t.Errorf("batched items = %d, want %d", got, len(ids))
	}
}

// TestFullScanPaginatesLargeTypes: a type whose population exceeds one page
// is walked page by page, every resource observed exactly once.
func TestFullScanPaginatesLargeTypes(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	ctx := context.Background()

	st := state.New()
	const n = scanPageSize + 50
	for start := 0; start < n; start += cloud.MaxBatchItems {
		end := start + cloud.MaxBatchItems
		if end > n {
			end = n
		}
		reqs := make([]cloud.CreateRequest, 0, end-start)
		for i := start; i < end; i++ {
			reqs = append(reqs, cloud.CreateRequest{
				Type: "aws_storage_bucket", Region: "us-east-1",
				Attrs:     map[string]eval.Value{"name": eval.String(fmt.Sprintf("b-%06d", i))},
				Principal: "cloudless",
			})
		}
		results, err := sim.BatchCreate(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			st.Set(&state.ResourceState{
				Addr: fmt.Sprintf("aws_storage_bucket.b[%d]", start+j), Type: "aws_storage_bucket",
				ID: r.Resource.ID, Region: r.Resource.Region, Attrs: r.Resource.Attrs,
			})
		}
	}

	rep, err := FullScan(ctx, sim, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasDrift() {
		t.Fatalf("clean fleet reported drift: %d items", len(rep.Items))
	}
	// The bucket type needed two pages; every other (type, region) one.
	if rep.APICalls < 51 {
		t.Errorf("scan used %d API calls; expected at least one page per (type, region) plus the overflow page", rep.APICalls)
	}
}

// heldGets is an upstream whose Get reads the simulator and then waits for
// release before it returns: a read that was in flight while the cloud
// changed under it.
type heldGets struct {
	*cloud.Sim
	read    chan struct{}
	release chan struct{}
}

func (h *heldGets) Get(ctx context.Context, typ, id string) (*cloud.Resource, error) {
	res, err := h.Sim.Get(ctx, typ, id)
	h.read <- struct{}{}
	<-h.release
	return res, err
}

// TestWatcherVerifiesAgainstTheCloud: a read that started before a foreign
// update and returns after another reader has tailed the log past the
// update's event must not hide the update from the watcher's verifying read.
func TestWatcherVerifiesAgainstTheCloud(t *testing.T) {
	sim, st := deployBase(t)
	ctx := context.Background()
	up := &heldGets{Sim: sim, read: make(chan struct{}), release: make(chan struct{})}
	rt := provider.New(up, provider.Options{})
	w := NewWatcher(rt, "cloudless", sim.LastSeq())
	vpc := st.Get("aws_vpc.main")

	got := make(chan error, 1)
	go func() {
		_, err := rt.Get(ctx, "aws_vpc", vpc.ID)
		got <- err
	}()
	<-up.read
	if _, err := sim.Update(ctx, cloud.UpdateRequest{
		Type: "aws_vpc", ID: vpc.ID,
		Attrs:     map[string]eval.Value{"enable_dns": eval.False},
		Principal: "team-networking",
	}); err != nil {
		t.Fatal(err)
	}
	// Another reader of the same runtime tails the log first.
	if _, err := rt.Activity(ctx, 0); err != nil {
		t.Fatal(err)
	}
	close(up.release)
	if err := <-got; err != nil {
		t.Fatal(err)
	}

	rep, err := w.Poll(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != 1 || rep.Items[0].Kind != Modified || rep.Items[0].Addr != "aws_vpc.main" {
		t.Fatalf("items = %+v, want one Modified aws_vpc.main", rep.Items)
	}
}
