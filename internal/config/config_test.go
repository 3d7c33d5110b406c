package config

import (
	"strings"
	"testing"

	"cloudless/internal/eval"
)

// figure2 is the paper's Figure 2 program in CCL.
const figure2 = `
data "aws_region" "current" {}

variable "vmName" {
  type    = string
  default = "cloudless"
}

resource "aws_network_interface" "n1" {
  name      = "example-nic"
  region    = data.aws_region.current.name
  subnet_id = aws_subnet.s1.id
}

resource "aws_subnet" "s1" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}

resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
`

func loadOK(t *testing.T, src string) *Module {
	t.Helper()
	m, diags := Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatalf("load: %s", diags.Error())
	}
	return m
}

func expandOK(t *testing.T, src string, vars map[string]eval.Value) *Expansion {
	t.Helper()
	m := loadOK(t, src)
	ex, diags := Expand(m, vars, nil)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	return ex
}

func TestLoadFigure2(t *testing.T) {
	m := loadOK(t, figure2)
	if len(m.Resources) != 4 || len(m.Data) != 1 || len(m.Variables) != 1 {
		t.Fatalf("resources=%d data=%d vars=%d", len(m.Resources), len(m.Data), len(m.Variables))
	}
	v := m.Variables["vmName"]
	if v.Type != "string" || !v.HasDefault || v.Default.AsString() != "cloudless" {
		t.Errorf("vmName = %+v", v)
	}
}

func TestExpandFigure2(t *testing.T) {
	ex := expandOK(t, figure2, nil)
	if len(ex.Instances) != 5 {
		t.Fatalf("got %d instances", len(ex.Instances))
	}
	vm := ex.ByAddr["aws_virtual_machine.vm1"]
	if vm == nil {
		t.Fatal("vm1 instance missing")
	}
	if len(vm.DependsOn) != 1 || vm.DependsOn[0] != "aws_network_interface.n1" {
		t.Errorf("vm deps = %v", vm.DependsOn)
	}
	nic := ex.ByAddr["aws_network_interface.n1"]
	wantDeps := []string{"aws_subnet.s1", "data.aws_region.current"}
	if strings.Join(nic.DependsOn, ",") != strings.Join(wantDeps, ",") {
		t.Errorf("nic deps = %v", nic.DependsOn)
	}
	// var.vmName evaluates in the instance scope.
	v, d := eval.Evaluate(vm.Attrs["name"], vm.Scope)
	if d.HasErrors() || v.AsString() != "cloudless" {
		t.Errorf("name = %v, %v", v, d)
	}
	if vm.Region != "us-east-1" {
		t.Errorf("region = %q (provider default expected)", vm.Region)
	}
	if vm.Provider != "aws" {
		t.Errorf("provider = %q", vm.Provider)
	}
}

func TestVariableOverrideAndTypeCheck(t *testing.T) {
	ex := expandOK(t, figure2, map[string]eval.Value{"vmName": eval.String("prod-vm")})
	vm := ex.ByAddr["aws_virtual_machine.vm1"]
	v, _ := eval.Evaluate(vm.Attrs["name"], vm.Scope)
	if v.AsString() != "prod-vm" {
		t.Errorf("name = %v", v)
	}
	m := loadOK(t, figure2)
	_, diags := Expand(m, map[string]eval.Value{"vmName": eval.Int(3)}, nil)
	if !diags.HasErrors() {
		t.Error("type mismatch not caught")
	}
}

func TestMissingRequiredVariable(t *testing.T) {
	m := loadOK(t, `
variable "required_thing" {}
resource "aws_vpc" "v" { cidr_block = var.required_thing }
`)
	_, diags := Expand(m, nil, nil)
	if !diags.HasErrors() || !strings.Contains(diags.Error(), "required_thing") {
		t.Fatalf("diags = %v", diags)
	}
}

func TestUndeclaredVariableValueRejected(t *testing.T) {
	m := loadOK(t, `resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }`)
	_, diags := Expand(m, map[string]eval.Value{"nope": eval.Int(1)}, nil)
	if !diags.HasErrors() {
		t.Error("undeclared variable value accepted")
	}
}

func TestLocalsChainAndCycle(t *testing.T) {
	ex := expandOK(t, `
variable "env" { default = "prod" }
locals {
  base   = "app-${var.env}"
  full   = "${local.base}-v2"
}
resource "aws_vpc" "v" {
  name       = local.full
  cidr_block = "10.0.0.0/16"
}
`, nil)
	v := ex.ByAddr["aws_vpc.v"]
	got, d := eval.Evaluate(v.Attrs["name"], v.Scope)
	if d.HasErrors() || got.AsString() != "app-prod-v2" {
		t.Errorf("name = %v %v", got, d)
	}

	m := loadOK(t, `
locals {
  a = local.b
  b = local.a
}
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
`)
	_, diags := Expand(m, nil, nil)
	if !diags.HasErrors() || !strings.Contains(diags.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", diags)
	}
}

func TestLocalsCannotReferenceResources(t *testing.T) {
	m := loadOK(t, `
locals { vpc = aws_vpc.v.id }
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
`)
	_, diags := Expand(m, nil, nil)
	if !diags.HasErrors() {
		t.Error("resource reference in local accepted")
	}
}

func TestCountExpansion(t *testing.T) {
	ex := expandOK(t, `
variable "n" { default = 3 }
resource "aws_vpc" "v" {
  count      = var.n
  name       = "vpc-${count.index}"
  cidr_block = "10.${count.index}.0.0/16"
}
`, nil)
	if len(ex.Instances) != 3 {
		t.Fatalf("got %d instances", len(ex.Instances))
	}
	inst := ex.ByAddr["aws_vpc.v[2]"]
	if inst == nil {
		t.Fatal("aws_vpc.v[2] missing")
	}
	name, _ := eval.Evaluate(inst.Attrs["name"], inst.Scope)
	cidr, _ := eval.Evaluate(inst.Attrs["cidr_block"], inst.Scope)
	if name.AsString() != "vpc-2" || cidr.AsString() != "10.2.0.0/16" {
		t.Errorf("instance 2: name=%v cidr=%v", name, cidr)
	}
	if inst.ResourceAddr() != "aws_vpc.v" {
		t.Errorf("resource addr = %q", inst.ResourceAddr())
	}
}

func TestCountZeroProducesNoInstances(t *testing.T) {
	ex := expandOK(t, `
resource "aws_vpc" "v" {
  count      = 0
  cidr_block = "10.0.0.0/16"
}
`, nil)
	if len(ex.Instances) != 0 {
		t.Fatalf("got %d instances", len(ex.Instances))
	}
}

func TestCountCannotReferenceResources(t *testing.T) {
	m := loadOK(t, `
resource "aws_vpc" "a" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  count      = length(aws_vpc.a.id)
  vpc_id     = aws_vpc.a.id
  cidr_block = "10.0.1.0/24"
}
`)
	_, diags := Expand(m, nil, nil)
	if !diags.HasErrors() {
		t.Error("count referencing a resource accepted")
	}
}

func TestForEachMapExpansion(t *testing.T) {
	ex := expandOK(t, `
variable "zones" {
  default = { a = "10.0.1.0/24", b = "10.0.2.0/24" }
}
resource "aws_subnet" "s" {
  for_each   = var.zones
  vpc_id     = aws_vpc.v.id
  cidr_block = each.value
  name       = "subnet-${each.key}"
}
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
`, nil)
	if len(ex.Instances) != 3 {
		t.Fatalf("got %d instances", len(ex.Instances))
	}
	sb := ex.ByAddr[`aws_subnet.s["b"]`]
	if sb == nil {
		t.Fatalf("keyed instance missing; have %v", addrsOf(ex))
	}
	cidr, _ := eval.Evaluate(sb.Attrs["cidr_block"], sb.Scope)
	if cidr.AsString() != "10.0.2.0/24" {
		t.Errorf("cidr = %v", cidr)
	}
}

func TestForEachListDuplicateRejected(t *testing.T) {
	m := loadOK(t, `
variable "names" { default = ["x", "x"] }
resource "aws_vpc" "v" {
  for_each   = var.names
  name       = each.key
  cidr_block = "10.0.0.0/16"
}
`)
	_, diags := Expand(m, nil, nil)
	if !diags.HasErrors() || !strings.Contains(diags.Error(), "duplicate") {
		t.Fatalf("diags = %v", diags)
	}
}

func TestCountAndForEachMutuallyExclusive(t *testing.T) {
	_, diags := Load(map[string]string{"m.ccl": `
resource "aws_vpc" "v" {
  count      = 1
  for_each   = ["a"]
  cidr_block = "10.0.0.0/16"
}
`})
	if !diags.HasErrors() {
		t.Error("count+for_each accepted")
	}
}

func TestProviderRegionConfiguration(t *testing.T) {
	ex := expandOK(t, `
provider "aws" { region = "eu-west-1" }
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
  region     = "us-west-2"
}
`, nil)
	if ex.Providers["aws"].Region != "eu-west-1" {
		t.Errorf("provider region = %q", ex.Providers["aws"].Region)
	}
	if ex.ByAddr["aws_vpc.v"].Region != "eu-west-1" {
		t.Errorf("vpc region = %q", ex.ByAddr["aws_vpc.v"].Region)
	}
	if ex.ByAddr["aws_subnet.s"].Region != "us-west-2" {
		t.Errorf("subnet region override = %q", ex.ByAddr["aws_subnet.s"].Region)
	}
}

func TestDependsOnExplicit(t *testing.T) {
	ex := expandOK(t, `
resource "aws_vpc" "a" { cidr_block = "10.0.0.0/16" }
resource "aws_vpc" "b" {
  cidr_block = "10.1.0.0/16"
  depends_on = [aws_vpc.a]
}
`, nil)
	b := ex.ByAddr["aws_vpc.b"]
	if len(b.DependsOn) != 1 || b.DependsOn[0] != "aws_vpc.a" {
		t.Errorf("deps = %v", b.DependsOn)
	}
}

// A reference that stops at a type, data or module root names no resource,
// so there is nothing to order its evaluation by; it is rejected at expand
// time rather than read as an order-dependent value.
func TestBareRootReferenceDiagnostic(t *testing.T) {
	const vpc = `resource "aws_vpc" "a" { cidr_block = "10.0.0.0/16" }
data "aws_region" "current" {}
`
	for _, tc := range []struct{ name, src, want string }{
		{"type root", `resource "aws_vpc" "b" { cidr_block = aws_vpc["a"].cidr_block }`,
			`reference aws_vpc["a"].cidr_block must name a resource: aws_vpc.<name>`},
		{"type root in a call", `resource "aws_vpc" "b" { cidr_block = keys(aws_vpc)[0] }`,
			"reference aws_vpc must name a resource: aws_vpc.<name>"},
		{"data root", `resource "aws_vpc" "b" { cidr_block = keys(data.aws_region)[0] }`,
			"reference data.aws_region must name a data source: data.<type>.<name>"},
		{"module root", `resource "aws_vpc" "b" { cidr_block = keys(module)[0] }`,
			"reference module must name a module call: module.<call>"},
		{"output", `output "all" { value = aws_vpc }`,
			"reference aws_vpc must name a resource: aws_vpc.<name>"},
		{"depends_on", `resource "aws_vpc" "b" {
  cidr_block = "10.1.0.0/16"
  depends_on = [aws_vpc]
}`, "reference aws_vpc must name a resource: aws_vpc.<name>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, diags := Expand(loadOK(t, vpc+tc.src), nil, nil)
			if !diags.HasErrors() || !strings.Contains(diags.Error(), tc.want) {
				t.Errorf("diags = %v, want %q", diags, tc.want)
			}
		})
	}
}

func TestSelfAndModuleReferencesAreRecorded(t *testing.T) {
	resolver := MapResolver{"./m": {"m.ccl": `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
output "cidr" { value = aws_vpc.v.cidr_block }
`}}
	m := loadOK(t, `
module "child" { source = "./m" }
resource "aws_subnet" "s" {
  count      = 2
  cidr_block = count.index == 0 ? module.child.cidr : aws_subnet.s[0].cidr_block
}
resource "aws_vpc" "plain" { cidr_block = "10.1.0.0/16" }
`)
	ex, diags := Expand(m, nil, resolver)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	s := ex.ByAddr["aws_subnet.s[1]"]
	if !s.RefsSelf || !s.RefsModule || strings.Join(s.DependsOn, ",") != "module.child.aws_vpc.v" {
		t.Errorf("subnet: self=%v module=%v deps=%v", s.RefsSelf, s.RefsModule, s.DependsOn)
	}
	if p := ex.ByAddr["aws_vpc.plain"]; p.RefsSelf || p.RefsModule {
		t.Errorf("plain vpc: self=%v module=%v", p.RefsSelf, p.RefsModule)
	}
}

func TestNestedBlockBecomesObjectAttr(t *testing.T) {
	m := loadOK(t, `
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  tags {
    env = "prod"
  }
}
`)
	r := m.Resources["aws_vpc.v"]
	if _, ok := r.Attrs["tags"]; !ok {
		t.Fatal("tags block not lifted to attribute")
	}
}

func TestModuleExpansion(t *testing.T) {
	resolver := MapResolver{
		"./modules/network": {
			"net.ccl": `
variable "cidr" {}
variable "name" { default = "net" }
resource "aws_vpc" "main" {
  name       = var.name
  cidr_block = var.cidr
}
resource "aws_subnet" "a" {
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(var.cidr, 8, 1)
}
output "vpc_id" { value = aws_vpc.main.id }
`,
		},
	}
	m := loadOK(t, `
variable "base" { default = "10.42.0.0/16" }
module "network" {
  source = "./modules/network"
  cidr   = var.base
  name   = "prod-net"
}
resource "aws_security_group" "sg" {
  name   = "app"
  vpc_id = module.network.vpc_id
}
`)
	ex, diags := Expand(m, nil, resolver)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	vpc := ex.ByAddr["module.network.aws_vpc.main"]
	if vpc == nil {
		t.Fatalf("module vpc missing; have %v", addrsOf(ex))
	}
	name, _ := eval.Evaluate(vpc.Attrs["name"], vpc.Scope)
	if name.AsString() != "prod-net" {
		t.Errorf("module arg not bound: name = %v", name)
	}
	sub := ex.ByAddr["module.network.aws_subnet.a"]
	if len(sub.DependsOn) != 1 || sub.DependsOn[0] != "module.network.aws_vpc.main" {
		t.Errorf("module-internal deps = %v", sub.DependsOn)
	}
	// The root SG depends, through the module output, on the module's VPC.
	sg := ex.ByAddr["aws_security_group.sg"]
	if len(sg.DependsOn) != 1 || sg.DependsOn[0] != "module.network.aws_vpc.main" {
		t.Errorf("cross-module deps = %v", sg.DependsOn)
	}
	// Module outputs recorded.
	if _, ok := ex.ModuleOutputs["network"]["vpc_id"]; !ok {
		t.Error("module output spec missing")
	}
}

func TestModuleArgCannotReferenceResources(t *testing.T) {
	resolver := MapResolver{"./m": {"m.ccl": `
variable "x" {}
resource "aws_vpc" "v" { cidr_block = var.x }
`}}
	m := loadOK(t, `
resource "aws_vpc" "root" { cidr_block = "10.0.0.0/16" }
module "child" {
  source = "./m"
  x      = aws_vpc.root.cidr_block
}
`)
	_, diags := Expand(m, nil, resolver)
	if !diags.HasErrors() {
		t.Error("module arg referencing a resource accepted")
	}
}

func TestUnknownResourceTypeDiagnostic(t *testing.T) {
	_, diags := Load(map[string]string{"m.ccl": `
resource "gcp_instance" "x" { name = "y" }
`})
	if !diags.HasErrors() || !strings.Contains(diags.Error(), "gcp_instance") {
		t.Fatalf("diags = %v", diags)
	}
}

func TestDuplicateResourceRejected(t *testing.T) {
	_, diags := Load(map[string]string{"m.ccl": `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_vpc" "v" { cidr_block = "10.1.0.0/16" }
`})
	if !diags.HasErrors() || !strings.Contains(diags.Error(), "duplicate") {
		t.Fatalf("diags = %v", diags)
	}
}

func TestOutputsRecorded(t *testing.T) {
	ex := expandOK(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
output "vpc_id" {
  value     = aws_vpc.v.id
  sensitive = false
}
`, nil)
	out := ex.Outputs["vpc_id"]
	if out == nil {
		t.Fatal("output missing")
	}
	if len(out.Deps) != 1 || out.Deps[0] != "aws_vpc.v" {
		t.Errorf("output deps = %v", out.Deps)
	}
}

func TestLoadDeterministicDiagOrder(t *testing.T) {
	files := map[string]string{
		"b.ccl": `resource "aws_vpc" "b" { bad`,
		"a.ccl": `resource "aws_vpc" "a" { bad`,
	}
	_, d1 := Load(files)
	_, d2 := Load(files)
	if d1.Error() != d2.Error() {
		t.Error("diagnostics order not deterministic")
	}
}

func addrsOf(ex *Expansion) []string {
	var out []string
	for _, i := range ex.Instances {
		out = append(out, i.Addr)
	}
	return out
}
