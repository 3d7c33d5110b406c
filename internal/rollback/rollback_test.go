package rollback

import (
	"context"
	"fmt"
	"testing"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

func mkState(mut func(*state.State)) *state.State {
	s := state.New()
	s.Set(&state.ResourceState{
		Addr: "aws_vpc.main", Type: "aws_vpc", ID: "vpc-1", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"id": eval.String("vpc-1"), "name": eval.String("main"),
			"cidr_block": eval.String("10.0.0.0/16"), "enable_dns": eval.True,
		},
	})
	s.Set(&state.ResourceState{
		Addr: "aws_subnet.s", Type: "aws_subnet", ID: "sub-1", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"id": eval.String("sub-1"), "vpc_id": eval.String("vpc-1"),
			"cidr_block": eval.String("10.0.1.0/24"),
		},
		Dependencies: []string{"aws_vpc.main"},
	})
	s.Set(&state.ResourceState{
		Addr: "aws_storage_bucket.b", Type: "aws_storage_bucket", ID: "bkt-1", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"id": eval.String("bkt-1"), "name": eval.String("data"), "versioning": eval.False,
		},
	})
	if mut != nil {
		mut(s)
	}
	return s
}

// setAttr edits one attribute the only way the immutable-record rule allows:
// on a copy of the record, which then replaces it. The copy holds attributes
// no cloud response did, so it drops the generation.
func setAttr(s *state.State, addr, name string, v eval.Value) {
	rs := s.Get(addr).Clone()
	rs.Attrs[name] = v
	rs.Generation = 0
	s.Set(rs)
}

// action returns the planned action for addr, noop when the plan has no
// change for it.
func action(p *plan.Plan, addr string) plan.Action {
	if ch := p.Changes[addr]; ch != nil {
		return ch.Action
	}
	return plan.ActionNoop
}

func TestComputeNoDiff(t *testing.T) {
	cur, tgt := mkState(nil), mkState(nil)
	p := Compute(cur, tgt)
	if p.PendingCount() != 0 || p.Noops != 3 {
		t.Fatalf("%s", p.Summary())
	}
}

func TestComputeInPlaceRevert(t *testing.T) {
	cur := mkState(func(s *state.State) {
		// A mutable attribute changed since the target snapshot.
		setAttr(s, "aws_storage_bucket.b", "versioning", eval.True)
	})
	tgt := mkState(nil)
	p := Compute(cur, tgt)
	if p.Updates != 1 || p.Creates+p.Replaces != 0 {
		t.Fatalf("%s", p.Summary())
	}
	if ch := p.Changes["aws_storage_bucket.b"]; ch.Action != plan.ActionUpdate || fmt.Sprint(ch.ChangedAttrs) != "[versioning]" {
		t.Errorf("change = %+v", ch)
	}
}

func TestComputeIrreversibleForcesRecreate(t *testing.T) {
	cur := mkState(func(s *state.State) {
		// cidr_block is ForceNew: reverting requires recreation.
		setAttr(s, "aws_vpc.main", "cidr_block", eval.String("10.99.0.0/16"))
	})
	tgt := mkState(nil)
	p := Compute(cur, tgt)
	if ch := p.Changes["aws_vpc.main"]; ch.Action != plan.ActionReplace || fmt.Sprint(ch.ForcedBy) != "[cidr_block]" {
		t.Fatalf("vpc change = %+v", ch)
	}
	// The subnet holds the VPC's ID in a ForceNew attr -> cascades.
	if ch := p.Changes["aws_subnet.s"]; ch.Action != plan.ActionReplace || fmt.Sprint(ch.ForcedBy) != "[vpc_id]" {
		t.Fatalf("recreation did not cascade to the subnet: %+v", ch)
	}
	// But the bucket (independent) is untouched.
	if a := action(p, "aws_storage_bucket.b"); a != plan.ActionNoop {
		t.Errorf("independent resource planned: %s", a)
	}
	if p.Creates+p.Replaces != 2 {
		t.Errorf("redeployments = %d, want 2", p.Creates+p.Replaces)
	}
}

func TestComputeMinimizesRedeployment(t *testing.T) {
	// Versus the naive "destroy everything and re-apply" baseline, only
	// the genuinely irreversible part is redeployed.
	cur := mkState(func(s *state.State) {
		setAttr(s, "aws_storage_bucket.b", "versioning", eval.True) // reversible
		setAttr(s, "aws_vpc.main", "enable_dns", eval.False)        // reversible
	})
	tgt := mkState(nil)
	p := Compute(cur, tgt)
	if p.Creates+p.Replaces != 0 || p.Updates != 2 {
		t.Fatalf("%s", p.Summary())
	}
}

func TestComputeExtraAndMissing(t *testing.T) {
	cur := mkState(func(s *state.State) {
		s.Set(&state.ResourceState{Addr: "aws_dns_record.tmp", Type: "aws_dns_record", ID: "dns-9",
			Attrs: map[string]eval.Value{"id": eval.String("dns-9"), "name": eval.String("x.example"), "value": eval.String("1.2.3.4")}})
		s.Remove("aws_storage_bucket.b")
	})
	tgt := mkState(nil)
	p := Compute(cur, tgt)
	if a := action(p, "aws_dns_record.tmp"); a != plan.ActionDelete {
		t.Errorf("extra = %s", a)
	}
	if a := action(p, "aws_storage_bucket.b"); a != plan.ActionCreate {
		t.Errorf("missing = %s", a)
	}
	if p.PendingCount() != 2 {
		t.Errorf("%s", p.Summary())
	}
}

// TestExecuteAgainstSim runs a full rollback against the simulator, covering
// ID remapping when a parent is recreated.
func TestExecuteAgainstSim(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	ctx := context.Background()

	// Deploy v1 by hand: vpc + subnet.
	vpc, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("main"), "cidr_block": eval.String("10.0.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_subnet", Region: "us-east-1",
		Attrs: map[string]eval.Value{"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24")}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := state.New()
	v1.Set(&state.ResourceState{Addr: "aws_vpc.main", Type: "aws_vpc", ID: vpc.ID, Region: "us-east-1", Attrs: vpc.Attrs})
	v1.Set(&state.ResourceState{Addr: "aws_subnet.s", Type: "aws_subnet", ID: sub.ID, Region: "us-east-1",
		Attrs: sub.Attrs, Dependencies: []string{"aws_vpc.main"}})

	// "Bad update": someone replaced the VPC (new cidr) and repointed the
	// subnet; now roll back to v1.
	cur := v1.Clone()
	setAttr(cur, "aws_vpc.main", "cidr_block", eval.String("10.99.0.0/16"))

	p := Compute(cur, v1)
	if p.Creates+p.Replaces == 0 {
		t.Fatalf("expected redeployments: %s", p.Summary())
	}
	// The current cloud reality must match `cur` for execution; simulate the
	// bad update for real: delete subnet+vpc, recreate with new cidr.
	if err := sim.Delete(ctx, "aws_subnet", sub.ID, "ops"); err != nil {
		t.Fatal(err)
	}
	if err := sim.Delete(ctx, "aws_vpc", vpc.ID, "ops"); err != nil {
		t.Fatal(err)
	}
	vpc2, _ := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("main"), "cidr_block": eval.String("10.99.0.0/16")}})
	sub2, _ := sim.Create(ctx, cloud.CreateRequest{Type: "aws_subnet", Region: "us-east-1",
		Attrs: map[string]eval.Value{"vpc_id": eval.String(vpc2.ID), "cidr_block": eval.String("10.99.1.0/24")}})
	cur = state.New()
	cur.Set(&state.ResourceState{Addr: "aws_vpc.main", Type: "aws_vpc", ID: vpc2.ID, Region: "us-east-1", Attrs: vpc2.Attrs})
	cur.Set(&state.ResourceState{Addr: "aws_subnet.s", Type: "aws_subnet", ID: sub2.ID, Region: "us-east-1",
		Attrs: sub2.Attrs, Dependencies: []string{"aws_vpc.main"}})

	p = Compute(cur, v1)
	after, err := Execute(ctx, sim, p, apply.Options{Principal: "cloudless"})
	if err != nil {
		t.Fatalf("execute: %s", err)
	}
	// The rolled-back VPC has the original CIDR and the subnet points at
	// the *new* VPC ID (remapped), not the stale recorded one.
	gotVPC := after.Get("aws_vpc.main")
	if gotVPC.Attr("cidr_block").AsString() != "10.0.0.0/16" {
		t.Errorf("cidr = %v", gotVPC.Attr("cidr_block"))
	}
	gotSub := after.Get("aws_subnet.s")
	if gotSub.Attr("vpc_id").AsString() != gotVPC.ID {
		t.Errorf("subnet vpc_id = %v, want %s", gotSub.Attr("vpc_id"), gotVPC.ID)
	}
	// And the cloud agrees.
	live, err := sim.Get(ctx, "aws_subnet", gotSub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if live.Attr("vpc_id").AsString() != gotVPC.ID {
		t.Errorf("cloud subnet vpc_id = %v", live.Attr("vpc_id"))
	}
}

func TestExecuteInPlaceOnly(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	ctx := context.Background()
	b, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_storage_bucket", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("data"), "versioning": eval.True}})
	if err != nil {
		t.Fatal(err)
	}
	cur := state.New()
	cur.Set(&state.ResourceState{Addr: "aws_storage_bucket.b", Type: "aws_storage_bucket",
		ID: b.ID, Region: "us-east-1", Attrs: b.Attrs})
	tgt := cur.Clone()
	setAttr(tgt, "aws_storage_bucket.b", "versioning", eval.False)

	p := Compute(cur, tgt)
	if p.Updates != 1 || p.Creates+p.Replaces != 0 {
		t.Fatalf("%s", p.Summary())
	}
	after, err := Execute(ctx, sim, p, apply.Options{Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Get("aws_storage_bucket.b").ID != b.ID {
		t.Error("in-place revert must not change the cloud ID")
	}
	live, _ := sim.Get(ctx, "aws_storage_bucket", b.ID)
	if !live.Attr("versioning").Equal(eval.False) {
		t.Errorf("versioning = %v", live.Attr("versioning"))
	}
}

// TestComputeRepointsMutableReference: a NIC that holds a recreated group
// only in its mutable security_group_ids is updated in place to the new
// group, not recreated: its one ForceNew reference, subnet_id, names an
// unchanged subnet.
func TestComputeRepointsMutableReference(t *testing.T) {
	tgt := mkState(func(s *state.State) {
		s.Set(&state.ResourceState{Addr: "aws_security_group.web", Type: "aws_security_group", ID: "sg-1",
			Attrs:        map[string]eval.Value{"id": eval.String("sg-1"), "name": eval.String("web"), "vpc_id": eval.String("vpc-1")},
			Dependencies: []string{"aws_vpc.main"}})
		s.Set(&state.ResourceState{Addr: "aws_network_interface.n", Type: "aws_network_interface", ID: "nic-1",
			Attrs: map[string]eval.Value{"id": eval.String("nic-1"), "subnet_id": eval.String("sub-1"),
				"security_group_ids": eval.Strings("sg-1")},
			Dependencies: []string{"aws_subnet.s", "aws_security_group.web"}})
	})
	cur := tgt.Clone()
	setAttr(cur, "aws_security_group.web", "vpc_id", eval.String("vpc-2"))

	p := Compute(cur, tgt)
	if p.Replaces != 1 || p.Updates != 1 || p.Creates+p.Deletes != 0 {
		t.Fatalf("%s", p.Summary())
	}
	if ch := p.Changes["aws_security_group.web"]; ch.Action != plan.ActionReplace || fmt.Sprint(ch.ForcedBy) != "[vpc_id]" {
		t.Errorf("group change = %+v", ch)
	}
	if ch := p.Changes["aws_network_interface.n"]; ch.Action != plan.ActionUpdate ||
		fmt.Sprint(ch.ChangedAttrs) != "[security_group_ids]" || len(ch.ForcedBy) != 0 {
		t.Errorf("nic change = %+v", ch)
	}
}

// TestRollbackReplacesOnlyWhatAForceNewReferenceForces: out of band, the
// web group was detached from its NIC and recreated in another VPC. Rolling
// back replaces the group — vpc_id is ForceNew — and updates the NIC in
// place to point at the new group; the NIC's one ForceNew reference is its
// subnet, which did not change. (The out-of-band change left the NIC
// detached: a group something still references cannot be deleted, and
// without create-before-destroy neither the planner nor a rollback can
// replace it.) The plan then runs through the applier, and the estate
// matches the target up to cloud IDs.
func TestRollbackReplacesOnlyWhatAForceNewReferenceForces(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	ctx := context.Background()
	create := func(typ string, attrs map[string]eval.Value) *cloud.Resource {
		t.Helper()
		r, err := sim.Create(ctx, cloud.CreateRequest{Type: typ, Region: "us-east-1", Principal: "cloudless", Attrs: attrs})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	record := func(s *state.State, addr string, r *cloud.Resource, deps ...string) {
		s.Set(&state.ResourceState{Addr: addr, Type: r.Type, ID: r.ID, Region: r.Region, Attrs: r.Attrs, Dependencies: deps})
	}
	vpc := create("aws_vpc", map[string]eval.Value{"name": eval.String("main"), "cidr_block": eval.String("10.0.0.0/16")})
	other := create("aws_vpc", map[string]eval.Value{"name": eval.String("other"), "cidr_block": eval.String("10.1.0.0/16")})
	sub := create("aws_subnet", map[string]eval.Value{"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24")})
	sg := create("aws_security_group", map[string]eval.Value{"name": eval.String("web"), "vpc_id": eval.String(vpc.ID)})
	nic := create("aws_network_interface", map[string]eval.Value{"name": eval.String("nic"),
		"subnet_id": eval.String(sub.ID), "security_group_ids": eval.Strings(sg.ID)})
	target := state.New()
	record(target, "aws_vpc.main", vpc)
	record(target, "aws_vpc.other", other)
	record(target, "aws_subnet.s", sub, "aws_vpc.main")
	record(target, "aws_security_group.web", sg, "aws_vpc.main")
	record(target, "aws_network_interface.n", nic, "aws_subnet.s", "aws_security_group.web")

	detached, err := sim.Update(ctx, cloud.UpdateRequest{Type: "aws_network_interface", ID: nic.ID, Principal: "ops",
		Attrs: map[string]eval.Value{"security_group_ids": eval.ListOf(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Delete(ctx, "aws_security_group", sg.ID, "ops"); err != nil {
		t.Fatal(err)
	}
	moved := create("aws_security_group", map[string]eval.Value{"name": eval.String("web"), "vpc_id": eval.String(other.ID)})
	current := target.Clone()
	record(current, "aws_security_group.web", moved, "aws_vpc.other")
	record(current, "aws_network_interface.n", detached, "aws_subnet.s")

	p := Compute(current, target)
	if p.Replaces != 1 || p.Updates != 1 || p.Creates+p.Deletes != 0 {
		t.Fatalf("plan %s, want the group replaced and the NIC updated", p.Summary())
	}
	if ch := p.Changes["aws_security_group.web"]; ch.Action != plan.ActionReplace || fmt.Sprint(ch.ForcedBy) != "[vpc_id]" {
		t.Errorf("group change = %+v", ch)
	}
	if ch := p.Changes["aws_network_interface.n"]; ch.Action != plan.ActionUpdate || fmt.Sprint(ch.ChangedAttrs) != "[security_group_ids]" {
		t.Errorf("nic change = %+v", ch)
	}

	after, err := Execute(ctx, sim, p, apply.Options{Principal: "cloudless"})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if after.Get("aws_network_interface.n").ID != nic.ID {
		t.Error("the NIC was recreated")
	}
	// Up to IDs: every target attribute, with each target ID swapped for
	// the ID its address holds now, is what the cloud holds.
	ids := map[string]string{}
	for _, addr := range target.Addrs() {
		ids[target.Get(addr).ID] = after.Get(addr).ID
	}
	for _, addr := range target.Addrs() {
		rs := after.Get(addr)
		live, err := sim.Get(ctx, rs.Type, rs.ID)
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		for name, want := range apply.RemapIDs(configurableAttrs(rs.Type, target.Get(addr).Attrs), ids) {
			if got := live.Attr(name); !got.Equal(want) {
				t.Errorf("%s.%s = %v, want %v", addr, name, got, want)
			}
		}
	}
	if n := sim.TotalResources(); n != target.Len() {
		t.Errorf("cloud holds %d resources, want %d", n, target.Len())
	}
}
