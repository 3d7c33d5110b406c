package rollback

import (
	"context"
	"testing"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
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

func TestComputeNoDiff(t *testing.T) {
	cur, tgt := mkState(nil), mkState(nil)
	p := Compute(cur, tgt)
	if len(p.Steps) != 0 {
		t.Fatalf("steps = %+v", p.Steps)
	}
}

func TestComputeInPlaceRevert(t *testing.T) {
	cur := mkState(func(s *state.State) {
		// A mutable attribute changed since the target snapshot.
		setAttr(s, "aws_storage_bucket.b", "versioning", eval.True)
	})
	tgt := mkState(nil)
	p := Compute(cur, tgt)
	if p.Reverts != 1 || p.Redeployments != 0 {
		t.Fatalf("%s: %+v", p.Summary(), p.Steps)
	}
	if p.Steps[0].Kind != RevertInPlace || p.Steps[0].Addr != "aws_storage_bucket.b" {
		t.Errorf("step = %+v", p.Steps[0])
	}
}

func TestComputeIrreversibleForcesRecreate(t *testing.T) {
	cur := mkState(func(s *state.State) {
		// cidr_block is ForceNew: reverting requires recreation.
		setAttr(s, "aws_vpc.main", "cidr_block", eval.String("10.99.0.0/16"))
	})
	tgt := mkState(nil)
	p := Compute(cur, tgt)
	var vpcStep *Step
	for i := range p.Steps {
		if p.Steps[i].Addr == "aws_vpc.main" {
			vpcStep = &p.Steps[i]
		}
	}
	if vpcStep == nil || vpcStep.Kind != Recreate {
		t.Fatalf("steps = %+v", p.Steps)
	}
	// The subnet references the VPC through a ForceNew attr -> cascades.
	var subStep *Step
	for i := range p.Steps {
		if p.Steps[i].Addr == "aws_subnet.s" {
			subStep = &p.Steps[i]
		}
	}
	if subStep == nil || subStep.Kind != Recreate {
		t.Fatalf("recreation did not cascade to the subnet: %+v", p.Steps)
	}
	// But the bucket (independent) is untouched.
	for _, s := range p.Steps {
		if s.Addr == "aws_storage_bucket.b" {
			t.Errorf("independent resource included: %+v", s)
		}
	}
	if p.Redeployments != 2 {
		t.Errorf("redeployments = %d, want 2", p.Redeployments)
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
	if p.Redeployments != 0 || p.Reverts != 2 {
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
	kinds := map[string]StepKind{}
	for _, s := range p.Steps {
		kinds[s.Addr] = s.Kind
	}
	if kinds["aws_dns_record.tmp"] != DeleteExtra {
		t.Errorf("extra = %v", kinds)
	}
	if kinds["aws_storage_bucket.b"] != CreateMissing {
		t.Errorf("missing = %v", kinds)
	}
	// Deletes come before creates in the plan.
	if p.Steps[0].Kind != DeleteExtra {
		t.Errorf("order = %+v", p.Steps)
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
	if p.Redeployments == 0 {
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
	after, err := Execute(ctx, sim, cur, p, apply.Options{Principal: "cloudless"})
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
	if p.Reverts != 1 || p.Redeployments != 0 {
		t.Fatalf("%s", p.Summary())
	}
	after, err := Execute(ctx, sim, cur, p, apply.Options{Principal: "cloudless"})
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
