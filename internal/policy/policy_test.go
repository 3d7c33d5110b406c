package policy

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

func parseOK(t *testing.T, src string) []*Policy {
	t.Helper()
	ps, diags := ParsePolicies("policies.ccl", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %s", diags.Error())
	}
	return ps
}

func planFor(t *testing.T, src string) *plan.Plan {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
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
	return p
}

func TestParsePolicies(t *testing.T) {
	ps := parseOK(t, `
policy "budget" {
  phase = "plan"
  when  = plan.monthly_cost > 500
  deny { message = "cost ${plan.monthly_cost} over budget" }
}

policy "scale-out" {
  phase = "operate"
  when  = metric.vpn_utilization > 0.8
  scale {
    variable = "tunnel_count"
    delta    = 1
    max      = 8
  }
  notify { message = "scaling out tunnels" }
}
`)
	if len(ps) != 2 {
		t.Fatalf("got %d policies", len(ps))
	}
	if ps[0].Phase != PhasePlan || len(ps[0].Actions) != 1 || ps[0].Actions[0].Kind != ActionDeny {
		t.Errorf("policy 0 = %+v", ps[0])
	}
	if ps[1].Phase != PhaseOperate || len(ps[1].Actions) != 2 {
		t.Errorf("policy 1 = %+v", ps[1])
	}
	sc := ps[1].Actions[0]
	if sc.Variable != "tunnel_count" || sc.Delta != 1 || !sc.HasMax || sc.Max != 8 {
		t.Errorf("scale = %+v", sc)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := []string{
		`policy "p" { when = true
  deny {} }`, // missing phase
		`policy "p" { phase = "plan"
  deny {} }`, // missing when
		`policy "p" { phase = "bogus"
  when = true
  deny {} }`, // bad phase
		`policy "p" { phase = "plan"
  when = true }`, // no actions
		`policy "p" { phase = "plan"
  when = true
  explode {} }`, // unknown action
	}
	for i, src := range cases {
		if _, diags := ParsePolicies("p.ccl", src); !diags.HasErrors() {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
}

func TestBudgetPolicyDeniesExpensivePlan(t *testing.T) {
	ps := parseOK(t, `
policy "budget" {
  phase = "plan"
  when  = plan.monthly_cost > 100
  deny { message = "too expensive" }
}
`)
	eng := NewEngine(ps)

	cheap := planFor(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
`)
	decs, diags := eng.EvaluatePlan(cheap)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if denied, _ := Denied(decs); denied {
		t.Error("cheap plan denied")
	}

	// A fleet of large VMs: m5.xlarge ~ $0.19/h * 10 * 730 ≈ $1400/mo.
	expensive := planFor(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_network_interface" "n" {
  count     = 10
  name      = "n-${count.index}"
  subnet_id = aws_subnet.s.id
}
resource "aws_virtual_machine" "vm" {
  count         = 10
  name          = "vm-${count.index}"
  instance_type = "m5.xlarge"
  nic_ids       = [aws_network_interface.n[count.index].id]
}
`)
	decs, diags = eng.EvaluatePlan(expensive)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	denied, msg := Denied(decs)
	if !denied || msg != "too expensive" {
		t.Errorf("decisions = %+v", decs)
	}
}

func TestResourceCountPolicy(t *testing.T) {
	ps := parseOK(t, `
policy "no-nat-sprawl" {
  phase = "plan"
  when  = lookup(plan.resource_counts, "aws_nat_gateway", 0) > 2
  deny { message = "too many NAT gateways" }
}
`)
	eng := NewEngine(ps)
	p := planFor(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_nat_gateway" "n" {
  count     = 3
  subnet_id = aws_subnet.s.id
}
`)
	decs, diags := eng.EvaluatePlan(p)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if denied, _ := Denied(decs); !denied {
		t.Errorf("decisions = %+v", decs)
	}
}

// TestAutoscalingPolicy exercises the paper's own example: "scale out the
// number of VPN gateways and attached tunnels if traffic throughput is
// close to their capacity".
func TestAutoscalingPolicy(t *testing.T) {
	ps := parseOK(t, `
policy "vpn-scale-out" {
  phase = "operate"
  when  = metric.vpn_utilization > 0.8
  scale {
    variable = "tunnel_count"
    delta    = 1
    max      = 4
  }
}
policy "vpn-scale-in" {
  phase = "operate"
  when  = metric.vpn_utilization < 0.2
  scale {
    variable = "tunnel_count"
    delta    = -1
    min      = 1
  }
}
`)
	eng := NewEngine(ps)
	eng.Vars["tunnel_count"] = eval.Int(2)

	// High load scales out.
	decs, diags := eng.Observe(map[string]eval.Value{"vpn_utilization": eval.Number(0.93)})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if len(decs) != 1 || decs[0].NewValue.AsInt() != 3 {
		t.Fatalf("decisions = %+v", decs)
	}
	// Engine state advanced.
	if eng.Vars["tunnel_count"].AsInt() != 3 {
		t.Error("variable not updated")
	}
	// Scaling clamps at max.
	eng.Observe(map[string]eval.Value{"vpn_utilization": eval.Number(0.95)})
	decs, _ = eng.Observe(map[string]eval.Value{"vpn_utilization": eval.Number(0.95)})
	if len(decs) != 0 {
		t.Errorf("scale past max produced decisions: %+v", decs)
	}
	if eng.Vars["tunnel_count"].AsInt() != 4 {
		t.Errorf("tunnel_count = %v", eng.Vars["tunnel_count"])
	}
	// Low load scales in, bounded at min.
	for i := 0; i < 6; i++ {
		eng.Observe(map[string]eval.Value{"vpn_utilization": eval.Number(0.05)})
	}
	if eng.Vars["tunnel_count"].AsInt() != 1 {
		t.Errorf("tunnel_count after scale-in = %v", eng.Vars["tunnel_count"])
	}
}

func TestSetVariablePolicy(t *testing.T) {
	ps := parseOK(t, `
policy "pin-large" {
  phase = "operate"
  when  = metric.p99_latency_ms > 250
  set_variable {
    name  = "instance_type"
    value = "m5.large"
  }
}
`)
	eng := NewEngine(ps)
	decs, diags := eng.Observe(map[string]eval.Value{"p99_latency_ms": eval.Int(400)})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if len(decs) != 1 || decs[0].Variable != "instance_type" || decs[0].NewValue.AsString() != "m5.large" {
		t.Fatalf("decisions = %+v", decs)
	}
}

func TestHourlyCostModel(t *testing.T) {
	micro := HourlyCost("aws_virtual_machine", map[string]eval.Value{
		"instance_type": eval.String("t3.micro"),
	})
	xlarge := HourlyCost("aws_virtual_machine", map[string]eval.Value{
		"instance_type": eval.String("m5.xlarge"),
	})
	if xlarge <= micro*10 {
		t.Errorf("m5.xlarge (%f) should cost far more than t3.micro (%f)", xlarge, micro)
	}
	free := HourlyCost("aws_vpc", nil)
	if free != 0 {
		t.Errorf("vpc cost = %f", free)
	}
	db := HourlyCost("aws_database_instance", map[string]eval.Value{
		"instance_class": eval.String("db.t3.micro"),
		"storage_gb":     eval.Int(100),
		"multi_az":       eval.True,
	})
	dbSingle := HourlyCost("aws_database_instance", map[string]eval.Value{
		"instance_class": eval.String("db.t3.micro"),
		"storage_gb":     eval.Int(100),
	})
	if db != dbSingle*2 {
		t.Errorf("multi-az should double cost: %f vs %f", db, dbSingle)
	}
}

func TestOutlierDetection(t *testing.T) {
	// Corpus: 9 buckets with versioning on, conventionally.
	corpusSrc := "resource \"aws_vpc\" \"v\" { cidr_block = \"10.0.0.0/16\" }\n"
	for i := 0; i < 9; i++ {
		corpusSrc += fmt.Sprintf(`
resource "aws_storage_bucket" "b%d" {
  name       = "bucket-%d"
  versioning = true
}
`, i, i)
	}
	m, diags := config.Load(map[string]string{"corpus.ccl": corpusSrc})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	corpus, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	ts := NewTemplateSet()
	ts.Learn(corpus)
	if ts.Samples("aws_storage_bucket") != 9 {
		t.Fatalf("samples = %d", ts.Samples("aws_storage_bucket"))
	}

	// New program: one conventional bucket, one with versioning off.
	m2, _ := config.Load(map[string]string{"new.ccl": `
resource "aws_storage_bucket" "good" {
  name       = "bucket-good"
  versioning = true
}
resource "aws_storage_bucket" "sketchy" {
  name       = "bucket-sketchy"
  versioning = false
}
`})
	ex2, _ := config.Expand(m2, nil, nil)
	outliers := ts.Detect(ex2, DetectOptions{})
	if len(outliers) != 1 {
		t.Fatalf("outliers = %+v", outliers)
	}
	o := outliers[0]
	if o.Addr != "aws_storage_bucket.sketchy" || o.Attr != "versioning" {
		t.Errorf("outlier = %+v", o)
	}
	if o.Dominant != "true" || o.Share < 0.99 {
		t.Errorf("dominant = %q share = %f", o.Dominant, o.Share)
	}
	if !strings.Contains(o.String(), "deviates") {
		t.Errorf("render = %q", o.String())
	}
	// Unique names must NOT be flagged (no dominant value).
	for _, o := range outliers {
		if o.Attr == "name" {
			t.Error("names flagged as outliers despite no convention")
		}
	}
}

func TestOutlierRequiresMinSamples(t *testing.T) {
	ts := NewTemplateSet()
	m, _ := config.Load(map[string]string{"c.ccl": `
resource "aws_storage_bucket" "one" {
  name       = "b1"
  versioning = true
}
`})
	ex, _ := config.Expand(m, nil, nil)
	ts.Learn(ex)
	m2, _ := config.Load(map[string]string{"n.ccl": `
resource "aws_storage_bucket" "x" {
  name       = "b2"
  versioning = false
}
`})
	ex2, _ := config.Expand(m2, nil, nil)
	if got := ts.Detect(ex2, DetectOptions{}); len(got) != 0 {
		t.Errorf("tiny corpus produced outliers: %+v", got)
	}
}

func TestDriftPhasePolicies(t *testing.T) {
	ps := parseOK(t, `
policy "revert-rogue" {
  phase = "drift"
  when  = drift.modified > 0 && contains(drift.actors, "legacy-script")
  revert {}
  notify { message = "reverting ${drift.modified} modification(s) by legacy-script" }
}
`)
	eng := NewEngine(ps)
	rep := driftReport(1, "legacy-script")
	decs, diags := eng.EvaluateDrift(rep)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if len(decs) != 2 || decs[0].Kind != ActionRevert {
		t.Fatalf("decisions = %+v", decs)
	}
	if !strings.Contains(decs[1].Message, "1 modification") {
		t.Errorf("message = %q", decs[1].Message)
	}
	// Drift by a trusted team does not fire.
	decs, _ = eng.EvaluateDrift(driftReport(1, "platform-team"))
	if len(decs) != 0 {
		t.Errorf("decisions = %+v", decs)
	}
}

// TestPhasesAreIndependent: what a phase decides and diagnoses depends only
// on that phase's policies, and a phase nobody listens to never builds its
// observation (PlanObservations prices every change of the plan).
func TestPhasesAreIndependent(t *testing.T) {
	all := parseOK(t, `
policy "budget" {
  phase = "plan"
  when  = plan.creates > 0
  deny { message = "${plan.creates} creates with ${var.n} allowed" }
}
policy "broken-plan" {
  phase = "plan"
  when  = plan.no_such_observation > 1
  deny {}
}
policy "revert-rogue" {
  phase = "drift"
  when  = drift.modified > 0
  revert {}
}
policy "scale-out" {
  phase = "operate"
  when  = metric.load > 0.8
  scale {
    variable = "n"
    delta    = 1
  }
}
policy "broken-operate" {
  phase = "operate"
  when  = metric.no_such_metric > 1
  notify {}
}
`)
	p := planFor(t, `resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }`)
	rep := driftReport(2, "legacy-script")
	metrics := map[string]eval.Value{"load": eval.Number(0.9)}
	phases := []Phase{PhasePlan, PhaseDrift, PhaseOperate}
	// evaluate renders each phase's decisions and diagnostics.
	evaluate := func(policies []*Policy) map[Phase]string {
		eng := NewEngine(policies)
		eng.Vars["n"] = eval.Int(2)
		out := map[Phase]string{}
		for _, ph := range phases {
			var decs []Decision
			var diags hcl.Diagnostics
			switch ph {
			case PhasePlan:
				decs, diags = eng.EvaluatePlan(p)
			case PhaseDrift:
				decs, diags = eng.EvaluateDrift(rep)
			case PhaseOperate:
				decs, diags = eng.Observe(metrics)
			}
			out[ph] = fmt.Sprintf("%d decisions %+v | %v", len(decs), decs, diags)
		}
		return out
	}

	together := evaluate(all)
	for _, ph := range phases {
		var own []*Policy
		for _, pol := range all {
			if pol.Phase == ph {
				own = append(own, pol)
			}
		}
		if alone := evaluate(own)[ph]; alone != together[ph] {
			t.Errorf("phase %s:\n  alone:    %s\n  together: %s", ph, alone, together[ph])
		}
		if !strings.HasPrefix(together[ph], "1 decisions") {
			t.Errorf("phase %s: %s, want its one decision", ph, together[ph])
		}
		// With only this phase's policies loaded, the others decide nothing.
		for other, got := range evaluate(own) {
			if other != ph && got != "0 decisions [] | no errors" {
				t.Errorf("phase %s with only %s policies loaded: %s", other, ph, got)
			}
		}
	}

	eng := NewEngine(all[2:]) // drift and operate only
	decs, diags := eng.run(PhasePlan, "plan", func() eval.Value {
		t.Error("observation built for a phase with no policy")
		return eval.Null
	})
	if len(decs) != 0 || len(diags) != 0 {
		t.Errorf("phase with no policy produced %+v, %v", decs, diags)
	}
}
