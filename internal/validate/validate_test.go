package validate

import (
	"strings"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/workload"
)

func validateSrc(t *testing.T, src string) *Result {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatalf("load: %s", diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	return Validate(ex, nil)
}

func hasFinding(r *Result, ruleID string) bool {
	for _, f := range r.Findings {
		if f.RuleID == ruleID {
			return true
		}
	}
	return false
}

func findingsByRule(r *Result, ruleID string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.RuleID == ruleID {
			out = append(out, f)
		}
	}
	return out
}

const azureBase = `
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}

resource "azure_virtual_network" "vnet" {
  name           = "vnet"
  location       = "eastus"
  resource_group = azure_resource_group.rg.id
  address_space  = ["10.0.0.0/16"]
}

resource "azure_subnet" "subnet" {
  virtual_network_id = azure_virtual_network.vnet.id
  address_prefix     = "10.0.1.0/24"
  location           = "eastus"
}

resource "azure_network_interface" "nic" {
  name      = "nic"
  location  = "eastus"
  subnet_id = azure_subnet.subnet.id
}
`

func TestValidateCleanConfig(t *testing.T) {
	r := validateSrc(t, azureBase+`
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "eastus"
  nic_ids  = [azure_network_interface.nic.id]
}
`)
	if r.HasErrors() {
		t.Fatalf("clean config produced errors: %+v", r.Errors())
	}
}

// TestVMNICRegionMismatch is the paper's first §3.2 example: a VM and its
// NIC in different regions must be rejected at compile time.
func TestVMNICRegionMismatch(t *testing.T) {
	r := validateSrc(t, azureBase+`
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "westus"
  nic_ids  = [azure_network_interface.nic.id]
}
`)
	fs := findingsByRule(r, "azure/vm-nic-same-region")
	if len(fs) != 1 {
		t.Fatalf("findings = %+v", r.Findings)
	}
	f := fs[0]
	if f.Severity != hcl.DiagError || f.Addr != "azure_virtual_machine.vm" {
		t.Errorf("finding = %+v", f)
	}
	// The finding points at the nic_ids attribute's source line.
	if f.Range.Start.Line == 0 {
		t.Error("finding has no source position")
	}
}

// TestPasswordCoRequirement is the paper's second §3.2 example.
func TestPasswordCoRequirement(t *testing.T) {
	r := validateSrc(t, azureBase+`
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  nic_ids        = [azure_network_interface.nic.id]
  admin_password = "hunter2"
}
`)
	if !hasFinding(r, "azure/vm-password-requires-enable") {
		t.Fatalf("co-requirement not caught: %+v", r.Findings)
	}
	// Setting disable_password = false fixes it.
	r = validateSrc(t, azureBase+`
resource "azure_virtual_machine" "vm" {
  name             = "vm"
  location         = "eastus"
  nic_ids          = [azure_network_interface.nic.id]
  admin_password   = "hunter2"
  disable_password = false
}
`)
	if hasFinding(r, "azure/vm-password-requires-enable") {
		t.Fatal("false positive after fix")
	}
}

// TestPeeringOverlap is the paper's third §3.2 example.
func TestPeeringOverlap(t *testing.T) {
	r := validateSrc(t, `
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}
resource "azure_virtual_network" "a" {
  name           = "a"
  resource_group = azure_resource_group.rg.id
  address_space  = ["10.0.0.0/16"]
}
resource "azure_virtual_network" "b" {
  name           = "b"
  resource_group = azure_resource_group.rg.id
  address_space  = ["10.0.128.0/17"]
}
resource "azure_vnet_peering" "p" {
  vnet_a_id = azure_virtual_network.a.id
  vnet_b_id = azure_virtual_network.b.id
}
`)
	if !hasFinding(r, "azure/peered-vnets-no-cidr-overlap") {
		t.Fatalf("overlap not caught: %+v", r.Findings)
	}
}

func TestSemanticRefTypeMisuse(t *testing.T) {
	// Passing a VPC id where a subnet id is expected: exactly the §3.2
	// "this reference could be easily misused" scenario.
	r := validateSrc(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_network_interface" "nic" {
  subnet_id = aws_vpc.v.id
}
`)
	fs := findingsByRule(r, "semantic/ref-type")
	if len(fs) != 1 || !strings.Contains(fs[0].Summary, "aws_subnet") {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestSemanticRefAttrWarning(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.arn
  cidr_block = "10.0.1.0/24"
}
`)
	fs := findingsByRule(r, "semantic/ref-attr")
	if len(fs) != 1 || fs[0].Severity != hcl.DiagWarning {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestSchemaChecks(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "v" {
  enable_dns = "not-a-bool-at-all"
  bogus_attr = 1
  id         = "vpc-forged"
}
`)
	for _, want := range []string{
		"schema/required",          // cidr_block missing
		"schema/unknown-attribute", // bogus_attr
		"schema/computed-readonly", // id
		"schema/type",              // enable_dns
	} {
		if !hasFinding(r, want) {
			t.Errorf("missing finding %s in %+v", want, r.Findings)
		}
	}
}

func TestOneOfCheck(t *testing.T) {
	r := validateSrc(t, azureBase+`
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "eastus"
  nic_ids  = [azure_network_interface.nic.id]
  size     = "Standard_Imaginary"
}
`)
	if !hasFinding(r, "schema/one-of") {
		t.Fatalf("one-of not caught: %+v", r.Findings)
	}
}

func TestCIDRSyntaxCheck(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0" }
`)
	if !hasFinding(r, "semantic/cidr") {
		t.Fatalf("bad CIDR not caught: %+v", r.Findings)
	}
}

func TestRegionValueCheck(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  region     = "mars-north-1"
}
`)
	if !hasFinding(r, "semantic/region") {
		t.Fatalf("bad region not caught: %+v", r.Findings)
	}
}

func TestSubnetOutsideVPCCIDR(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "192.168.1.0/24"
}
`)
	if !hasFinding(r, "aws/subnet-cidr-within-vpc") {
		t.Fatalf("containment not caught: %+v", r.Findings)
	}
}

func TestUnknownValuesAreNotFlagged(t *testing.T) {
	// CIDRs computed from another resource are unknown at validation time
	// and must not produce false positives.
	r := validateSrc(t, `
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = cidrsubnet(aws_vpc.v.cidr_block, 8, 1)
}
`)
	if r.HasErrors() {
		t.Fatalf("false positives on unknown values: %+v", r.Errors())
	}
}

func TestValidateCountInstances(t *testing.T) {
	// Rule checks apply per instance; two of three VMs are misplaced.
	r := validateSrc(t, azureBase+`
resource "azure_virtual_machine" "vm" {
  count    = 3
  name     = "vm-${count.index}"
  location = count.index > 0 ? "westus" : "eastus"
  nic_ids  = [azure_network_interface.nic.id]
}
`)
	fs := findingsByRule(r, "azure/vm-nic-same-region")
	if len(fs) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(fs), fs)
	}
}

func TestFindingsSortedDeterministically(t *testing.T) {
	src := azureBase + `
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "westus"
  nic_ids        = [azure_network_interface.nic.id]
  admin_password = "x"
}
`
	a := validateSrc(t, src)
	b := validateSrc(t, src)
	if len(a.Findings) != len(b.Findings) {
		t.Fatal("nondeterministic count")
	}
	for i := range a.Findings {
		if a.Findings[i].RuleID != b.Findings[i].RuleID {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestDiagnosticsConversion(t *testing.T) {
	r := validateSrc(t, `resource "aws_vpc" "v" {}`)
	diags := r.Diagnostics()
	if !diags.HasErrors() {
		t.Fatal("expected error diagnostics")
	}
	if !strings.Contains(diags.Error(), "schema/required") {
		t.Errorf("diag = %s", diags.Error())
	}
}

func TestCustomKnowledgeBaseRule(t *testing.T) {
	// The knowledge base is extensible at runtime: add a rule constraining
	// bucket versioning and watch it fire.
	kb := cloneDefaultKB(t)
	_ = kb.Add(&schemaRule{
		ID:            "corp/buckets-must-version",
		Description:   "corporate policy: buckets must enable versioning",
		Kind:          ruleAttrRequiresValue,
		ResourceType:  "aws_storage_bucket",
		Attr:          "name",
		RequiresAttr:  "versioning",
		RequiresValue: eval.True,
	})
	m, _ := config.Load(map[string]string{"main.ccl": `
resource "aws_storage_bucket" "b" { name = "data" }
`})
	ex, _ := config.Expand(m, nil, nil)
	r := Validate(ex, kb)
	if !hasFinding(r, "corp/buckets-must-version") {
		t.Fatalf("custom rule did not fire: %+v", r.Findings)
	}
}

// TestDuplicateNamesRejected: names are unique per (type, region) in the
// cloud, so statically known collisions — count siblings with a constant
// name, or two declarations — fail validation instead of failing half way
// through a deploy with 409 Conflict.
func TestDuplicateNamesRejected(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "a" {
  count      = 2
  name       = "same"
  cidr_block = "10.0.0.0/16"
}
`)
	got := findingsByRule(r, "semantic/unique-name")
	if len(got) != 1 || got[0].Addr != "aws_vpc.a[1]" || got[0].Attr != "name" || !r.HasErrors() {
		t.Fatalf("count siblings: findings %+v", r.Findings)
	}
	if !strings.Contains(got[0].Summary, "aws_vpc.a[0]") {
		t.Fatalf("summary does not name the first holder: %s", got[0].Summary)
	}

	r = validateSrc(t, `
resource "aws_vpc" "a" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}
resource "aws_vpc" "b" {
  name       = "net"
  cidr_block = "10.1.0.0/16"
}
`)
	if got := findingsByRule(r, "semantic/unique-name"); len(got) != 1 || got[0].Addr != "aws_vpc.b" {
		t.Fatalf("distinct declarations: findings %+v", r.Findings)
	}
}

// TestUniqueNameSkipsWhatItCannotKnow: per-instance names, names that only
// exist at deploy time, other regions and other types are not collisions.
func TestUniqueNameSkipsWhatItCannotKnow(t *testing.T) {
	r := validateSrc(t, `
resource "aws_vpc" "counted" {
  count      = 2
  name       = "net-${count.index}"
  cidr_block = "10.0.0.0/16"
}
resource "aws_vpc" "east" {
  name       = "net"
  cidr_block = "10.1.0.0/16"
}
resource "aws_vpc" "west" {
  name       = "net"
  region     = "us-west-2"
  cidr_block = "10.2.0.0/16"
}
resource "aws_security_group" "net" {
  name   = "net"
  vpc_id = aws_vpc.east.id
}
resource "aws_subnet" "a" {
  name       = "sub-${aws_vpc.east.id}"
  vpc_id     = aws_vpc.east.id
  cidr_block = "10.1.1.0/24"
}
resource "aws_subnet" "b" {
  name       = "sub-${aws_vpc.east.id}"
  vpc_id     = aws_vpc.east.id
  cidr_block = "10.1.2.0/24"
}
`)
	if got := findingsByRule(r, "semantic/unique-name"); len(got) != 0 {
		t.Fatalf("false collisions: %+v", got)
	}
}

// TestBenchProgramsValidateClean: the generators behind the repository
// benchmark pass Validate with no finding at the sizes the benchmark uses.
// cloudlessd validates before every plan and apply job, so a finding here
// would fail daemon_mixed's jobs.
func TestBenchProgramsValidateClean(t *testing.T) {
	editable, _ := workload.EditableDAG(667, 1)
	for name, files := range map[string]map[string]string{
		"RandomDAG(667)":   workload.RandomDAG(667, 1),
		"RandomDAG(167)":   workload.RandomDAG(167, 1),
		"EditableDAG(667)": editable,
		"WebTier(2, 10)":   workload.WebTier("t1-0", 2, 10),
	} {
		m, diags := config.Load(files)
		if diags.HasErrors() {
			t.Fatalf("%s: load: %s", name, diags.Error())
		}
		ex, diags := config.Expand(m, nil, nil)
		if diags.HasErrors() {
			t.Fatalf("%s: expand: %s", name, diags.Error())
		}
		if r := Validate(ex, nil); len(r.Findings) != 0 {
			t.Errorf("%s: %d findings, first %v", name, len(r.Findings), r.Findings[0])
		}
	}
}
