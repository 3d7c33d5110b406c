package plan

import (
	"context"
	"strings"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/state"
)

const webConfig = `
data "aws_region" "current" {}

resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 2
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, count.index)
  region     = data.aws_region.current.name
}

resource "aws_network_interface" "nic" {
  name      = "nic"
  subnet_id = aws_subnet.s[0].id
}

resource "aws_virtual_machine" "web" {
  name    = "web"
  nic_ids = [aws_network_interface.nic.id]
}

output "vm_name" { value = aws_virtual_machine.web.name }
`

func expandSrc(t *testing.T, src string) *config.Expansion {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatalf("load: %s", diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	return ex
}

func computeOK(t *testing.T, ex *config.Expansion, prior *state.State, opts Options) *Plan {
	t.Helper()
	p, diags := Compute(context.Background(), ex, prior, opts)
	if diags.HasErrors() {
		t.Fatalf("plan: %s", diags.Error())
	}
	return p
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
	}{
		{"aws_vpc.main", Addr{Type: "aws_vpc", Name: "main"}},
		{"aws_subnet.s[2]", Addr{Type: "aws_subnet", Name: "s", Key: 2}},
		{`aws_vm.w["blue"]`, Addr{Type: "aws_vm", Name: "w", Key: "blue"}},
		{"data.aws_region.current", Addr{Data: true, Type: "aws_region", Name: "current"}},
		{"module.net.aws_vpc.main", Addr{ModulePath: "net", Type: "aws_vpc", Name: "main"}},
		{"module.net.data.aws_region.r", Addr{ModulePath: "net", Data: true, Type: "aws_region", Name: "r"}},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if err != nil {
			t.Errorf("ParseAddr(%q): %s", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseAddr(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"aws_vpc", "a.b.c.d.e", "aws_vpc.main[", "aws_vpc.main[x]"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) should fail", bad)
		}
	}
}

func TestPlanInitialCreate(t *testing.T) {
	ex := expandSrc(t, webConfig)
	p := computeOK(t, ex, state.New(), Options{})
	if p.Creates != 5 || p.Updates != 0 || p.Deletes != 0 {
		t.Fatalf("summary: %s", p.Summary())
	}
	vm := p.Changes["aws_virtual_machine.web"]
	if vm == nil || vm.Action != ActionCreate {
		t.Fatalf("vm change = %+v", vm)
	}
	// nic_ids references an uncreated NIC: unknown at plan time.
	if !vm.After["nic_ids"].IsUnknown() && vm.After["nic_ids"].IsKnown() {
		t.Errorf("nic_ids should be (known after apply), got %v", vm.After["nic_ids"])
	}
	// Graph: vm depends on nic; subnets depend on vpc.
	deps := p.Graph.Dependencies("aws_virtual_machine.web")
	if len(deps) != 1 || deps[0] != "aws_network_interface.nic" {
		t.Errorf("vm graph deps = %v", deps)
	}
	if got := p.Graph.Dependencies("aws_subnet.s[0]"); len(got) != 1 || got[0] != "aws_vpc.main" {
		t.Errorf("subnet deps = %v", got)
	}
	// cidrsubnet over a known literal resolves at plan time.
	s1 := p.Changes["aws_subnet.s[1]"]
	if !s1.After["cidr_block"].Equal(eval.String("10.0.1.0/24")) {
		t.Errorf("subnet cidr = %v", s1.After["cidr_block"])
	}
	// Data source resolved locally at plan time.
	if v, ok := p.Values.Get("data.aws_region.current"); !ok || v.AsObject()["name"].AsString() != "us-east-1" {
		t.Errorf("data source value = %v", v)
	}
}

func TestPlanIdempotentNoop(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	p := computeOK(t, ex, prior, Options{})
	if p.PendingCount() != 0 {
		for a, c := range p.Changes {
			if c.Action != ActionNoop {
				t.Logf("%s -> %s (%v)", a, c.Action, c.ChangedAttrs)
			}
		}
		t.Fatalf("expected all no-op, got %s", p.Summary())
	}
}

// stateFromPlanAssumingIDs fabricates the state an apply of the initial plan
// would produce, wiring fake IDs through references.
func stateFromPlanAssumingIDs(t *testing.T, ex *config.Expansion) *state.State {
	t.Helper()
	st := state.New()
	ids := map[string]string{
		"aws_vpc.main":              "vpc-1",
		"aws_subnet.s[0]":           "subnet-0",
		"aws_subnet.s[1]":           "subnet-1",
		"aws_network_interface.nic": "nic-1",
		"aws_virtual_machine.web":   "vm-1",
	}
	attrs := map[string]map[string]eval.Value{
		"aws_vpc.main": {
			"name": eval.String("main"), "cidr_block": eval.String("10.0.0.0/16"),
			"enable_dns": eval.True, "region": eval.String("us-east-1"),
		},
		"aws_subnet.s[0]": {
			"vpc_id": eval.String("vpc-1"), "cidr_block": eval.String("10.0.0.0/24"),
			"region": eval.String("us-east-1"),
		},
		"aws_subnet.s[1]": {
			"vpc_id": eval.String("vpc-1"), "cidr_block": eval.String("10.0.1.0/24"),
			"region": eval.String("us-east-1"),
		},
		"aws_network_interface.nic": {
			"name": eval.String("nic"), "subnet_id": eval.String("subnet-0"),
		},
		"aws_virtual_machine.web": {
			"name": eval.String("web"), "nic_ids": eval.Strings("nic-1"),
			"instance_type": eval.String("t3.micro"), "image": eval.String("ami-linux-2026"),
		},
	}
	for addr, id := range ids {
		a := attrs[addr]
		a["id"] = eval.String(id)
		typ := strings.SplitN(ResourceAddrOf(addr), ".", 2)[0]
		st.Set(&state.ResourceState{Addr: addr, Type: typ, ID: id, Region: "us-east-1", Attrs: a})
	}
	return st
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

func TestPlanUpdateAndReplace(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	// In-place change: VM name is updatable.
	setAttr(prior, "aws_virtual_machine.web", "name", eval.String("old-name"))
	// ForceNew change: VPC cidr_block forces replacement.
	setAttr(prior, "aws_vpc.main", "cidr_block", eval.String("10.9.0.0/16"))

	p := computeOK(t, ex, prior, Options{})
	vm := p.Changes["aws_virtual_machine.web"]
	if vm.Action != ActionUpdate {
		t.Errorf("vm action = %s", vm.Action)
	}
	vpc := p.Changes["aws_vpc.main"]
	if vpc.Action != ActionReplace || len(vpc.ForcedBy) == 0 || vpc.ForcedBy[0] != "cidr_block" {
		t.Errorf("vpc action = %s forcedBy=%v", vpc.Action, vpc.ForcedBy)
	}
	// Replacing the VPC regenerates its id, so subnets see unknown vpc_id
	// and must be planned for update too.
	s0 := p.Changes["aws_subnet.s[0]"]
	if s0.Action == ActionNoop {
		t.Error("subnet should be affected by vpc replacement")
	}
}

// TestPlanCascadingReplaceThroughUnknownForceNew: editing the VPC's cidr
// replaces the VPC and both subnets. The NIC's subnet_id is then unknown on
// a ForceNew attribute, which can only resolve to the new subnet's ID, so
// the NIC is replaced too rather than updated in place. The VM's nic_ids
// is mutable: an update.
func TestPlanCascadingReplaceThroughUnknownForceNew(t *testing.T) {
	prior := stateFromPlanAssumingIDs(t, expandSrc(t, webConfig))
	ex := expandSrc(t, strings.Replace(webConfig, `cidr_block = "10.0.0.0/16"`, `cidr_block = "10.1.0.0/16"`, 1))
	p := computeOK(t, ex, prior, Options{})
	for _, addr := range []string{"aws_vpc.main", "aws_subnet.s[0]", "aws_subnet.s[1]", "aws_network_interface.nic"} {
		if ch := p.Changes[addr]; ch.Action != ActionReplace {
			t.Errorf("%s = %s (forced by %v), want replace", addr, ch.Action, ch.ForcedBy)
		}
	}
	if nic := p.Changes["aws_network_interface.nic"]; len(nic.ForcedBy) != 1 || nic.ForcedBy[0] != "subnet_id" {
		t.Errorf("nic forced by %v, want [subnet_id]", nic.ForcedBy)
	}
	if vm := p.Changes["aws_virtual_machine.web"]; vm.Action != ActionUpdate {
		t.Errorf("vm = %s, want update", vm.Action)
	}
}

func TestPlanDeleteOrphans(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	prior.Set(&state.ResourceState{
		Addr: "aws_storage_bucket.old", Type: "aws_storage_bucket", ID: "bucket-9",
		Region: "us-east-1",
		Attrs:  map[string]eval.Value{"id": eval.String("bucket-9"), "name": eval.String("old")},
	})
	p := computeOK(t, ex, prior, Options{})
	ch := p.Changes["aws_storage_bucket.old"]
	if ch == nil || ch.Action != ActionDelete {
		t.Fatalf("orphan not planned for deletion: %+v", ch)
	}
}

func TestPlanDeleteOrdering(t *testing.T) {
	// Removing both subnet and vpc: subnet (dependent) must delete first,
	// i.e. vpc's delete depends on subnet's delete.
	prior := state.New()
	prior.Set(&state.ResourceState{Addr: "aws_vpc.v", Type: "aws_vpc", ID: "vpc-1",
		Attrs: map[string]eval.Value{"id": eval.String("vpc-1"), "cidr_block": eval.String("10.0.0.0/16")}})
	prior.Set(&state.ResourceState{Addr: "aws_subnet.s", Type: "aws_subnet", ID: "sub-1",
		Attrs:        map[string]eval.Value{"id": eval.String("sub-1"), "vpc_id": eval.String("vpc-1")},
		Dependencies: []string{"aws_vpc.v"}})
	ex := expandSrc(t, `# empty config`)
	p := computeOK(t, ex, prior, Options{})
	if p.Deletes != 2 {
		t.Fatalf("summary = %s", p.Summary())
	}
	deps := p.Graph.Dependencies("aws_vpc.v")
	if len(deps) != 1 || deps[0] != "aws_subnet.s" {
		t.Errorf("vpc delete deps = %v (must wait for subnet)", deps)
	}
}

func TestIncrementalPlanConfinesWork(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	// Out-of-scope drift that a full plan would catch:
	setAttr(prior, "aws_vpc.main", "name", eval.String("renamed-out-of-band"))
	// In-scope change:
	setAttr(prior, "aws_virtual_machine.web", "name", eval.String("old"))

	p := computeOK(t, ex, prior, Options{
		ImpactScope: []string{"aws_virtual_machine.web"},
	})
	if p.Changes["aws_virtual_machine.web"].Action != ActionUpdate {
		t.Error("in-scope change missed")
	}
	if ch, ok := p.Changes["aws_vpc.main"]; ok && ch.Action != ActionNoop {
		t.Error("out-of-scope resource was planned")
	}
	// The incremental plan evaluated only the VM, not all five instances.
	if p.EvaluatedInstances != 1 {
		t.Errorf("evaluated %d instances, want 1", p.EvaluatedInstances)
	}
}

func TestIncrementalScopeIncludesDependents(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	p := computeOK(t, ex, prior, Options{
		ImpactScope: []string{"aws_network_interface.nic"},
	})
	// The VM transitively depends on the NIC, so it must be in scope
	// (2 instances evaluated: nic + vm).
	if p.EvaluatedInstances != 2 {
		t.Errorf("evaluated %d instances, want 2", p.EvaluatedInstances)
	}
}

func TestPlanCosts(t *testing.T) {
	ex := expandSrc(t, webConfig)
	p := computeOK(t, ex, state.New(), Options{})
	costs := p.Costs()
	if costs("aws_virtual_machine.web") <= costs("aws_subnet.s[0]") {
		t.Error("VM creation must cost more than subnet creation in the model")
	}
	if costs("not-a-node") != 0 {
		t.Error("unknown node cost must be zero")
	}
}

func TestPlanGraphExcludesNoops(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	setAttr(prior, "aws_virtual_machine.web", "name", eval.String("old"))
	p := computeOK(t, ex, prior, Options{})
	if p.Graph.Len() != 1 || !p.Graph.HasNode("aws_virtual_machine.web") {
		t.Errorf("graph nodes = %v", p.Graph.Nodes())
	}
}

// A reference cycle between two resources is the walk's own error: the
// diagnostic names both ends and nothing is evaluated.
func TestPlanReportsDependencyCycle(t *testing.T) {
	ex := expandSrc(t, `
resource "aws_vpc" "a" {
  name       = aws_vpc.b.name
  cidr_block = "10.0.0.0/16"
}

resource "aws_vpc" "b" {
  name       = aws_vpc.a.name
  cidr_block = "10.1.0.0/16"
}
`)
	p, diags := Compute(context.Background(), ex, nil, Options{})
	if !diags.HasErrors() {
		t.Fatal("cyclic configuration planned without error")
	}
	msg := diags.Error()
	for _, want := range []string{"configuration has a dependency cycle", "aws_vpc.a", "aws_vpc.b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q does not mention %q", msg, want)
		}
	}
	if p.EvaluatedInstances != 0 || len(p.Changes) != 0 {
		t.Errorf("cyclic plan evaluated %d instances, recorded %d changes; want none",
			p.EvaluatedInstances, len(p.Changes))
	}
}

// Evaluation errors in unrelated resources come out in resource-address
// order, wherever the resources sit in the source and in the walk: z_first
// has no dependencies and is evaluated before a_last, which waits for the vpc.
func TestPlanDiagnosticsInAddressOrder(t *testing.T) {
	const (
		aLast = `
resource "aws_virtual_machine" "a_last" {
  name = nosuch_a(aws_vpc.main.name)
}
`
		vpc = `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}
`
		zFirst = `
resource "aws_virtual_machine" "z_first" {
  name = nosuch_z("x")
}
`
	)
	for _, src := range []string{aLast + vpc + zFirst, zFirst + vpc + aLast} {
		p, diags := Compute(context.Background(), expandSrc(t, src), nil, Options{})
		if len(diags) != 2 ||
			!strings.Contains(diags[0].Error(), "nosuch_a") ||
			!strings.Contains(diags[1].Error(), "nosuch_z") {
			t.Errorf("diagnostics not in address order (a_last, z_first): %v\nsource:%s", diags, src)
		}
		if p.Creates != 1 {
			t.Errorf("%d creates, want the vpc alone", p.Creates)
		}
	}
}
