package plan

import (
	"context"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/state"
)

func expandForValues(t *testing.T, src string) *config.Expansion {
	t.Helper()
	return expandWithModules(t, src, nil)
}

func expandWithModules(t *testing.T, src string, resolver config.ModuleResolver) *config.Expansion {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, resolver)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	return ex
}

const valuesConfig = `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 3
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}

resource "aws_storage_bucket" "kv" {
  for_each = { a = "x", b = "y" }
  name     = "bucket-${each.key}"
}

data "aws_region" "current" {}

# Scopes expose only what a declaration names; this one names every group
# the assembly tests read.
resource "aws_network_interface" "reader" {
  name      = "nic-${data.aws_region.current.name}-${aws_storage_bucket.kv["a"].name}"
  subnet_id = aws_subnet.s[0].id
}
`

func TestValueStoreCacheInvalidation(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	sub := ex.ByAddr["aws_subnet.s[0]"] // references aws_vpc.main

	// Before any write, everything is unknown.
	scope := vs.ScopeFor(sub)
	v, _ := scope.Lookup("aws_vpc")
	got, err := v.GetAttr("main")
	if err != nil || !got.IsUnknown() {
		t.Fatalf("pre-write value = %v, %v", got, err)
	}

	// Write, then the scope must expose the new value (cache invalidated).
	vs.Set("aws_vpc.main", eval.Object(map[string]eval.Value{"id": eval.String("vpc-1")}))
	scope = vs.ScopeFor(sub)
	v, _ = scope.Lookup("aws_vpc")
	got, _ = v.GetAttr("main")
	id, err := got.GetAttr("id")
	if err != nil || id.AsString() != "vpc-1" {
		t.Fatalf("post-write id = %v, %v", id, err)
	}

	// Unrelated groups stay assembled across further writes: writing subnet
	// values must not disturb the vpc root.
	vs.Set("aws_subnet.s[1]", eval.Object(map[string]eval.Value{"id": eval.String("sub-1")}))
	scope = vs.ScopeFor(sub)
	v, _ = scope.Lookup("aws_vpc")
	got, _ = v.GetAttr("main")
	if id, _ := got.GetAttr("id"); id.AsString() != "vpc-1" {
		t.Fatal("vpc value lost after unrelated write")
	}
}

func TestValueStoreCountGroupAssembly(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	vs.Set("aws_subnet.s[0]", eval.Object(map[string]eval.Value{"id": eval.String("sub-0")}))
	vs.Set("aws_subnet.s[2]", eval.Object(map[string]eval.Value{"id": eval.String("sub-2")}))

	scope := vs.ScopeFor(ex.ByAddr["aws_network_interface.reader"])
	root, _ := scope.Lookup("aws_subnet")
	group, err := root.GetAttr("s")
	if err != nil || group.Kind() != eval.KindList {
		t.Fatalf("subnet group = %v, %v", group, err)
	}
	list := group.AsList()
	if len(list) != 3 {
		t.Fatalf("list len = %d", len(list))
	}
	if id, _ := list[0].GetAttr("id"); id.AsString() != "sub-0" {
		t.Errorf("s[0] = %v", list[0])
	}
	// The unwritten middle element is unknown, not missing.
	if !list[1].IsUnknown() {
		t.Errorf("s[1] = %v, want unknown", list[1])
	}
	if id, _ := list[2].GetAttr("id"); id.AsString() != "sub-2" {
		t.Errorf("s[2] = %v", list[2])
	}
}

func TestValueStoreForEachGroupAssembly(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	vs.Set(`aws_storage_bucket.kv["a"]`, eval.Object(map[string]eval.Value{"id": eval.String("bkt-a")}))

	scope := vs.ScopeFor(ex.ByAddr["aws_network_interface.reader"])
	root, _ := scope.Lookup("aws_storage_bucket")
	group, err := root.GetAttr("kv")
	if err != nil || group.Kind() != eval.KindObject {
		t.Fatalf("kv group = %v, %v", group, err)
	}
	a, err := group.Index(eval.String("a"))
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := a.GetAttr("id"); id.AsString() != "bkt-a" {
		t.Errorf("kv[a] = %v", a)
	}
	b, _ := group.Index(eval.String("b"))
	if !b.IsUnknown() {
		t.Errorf("kv[b] = %v, want unknown", b)
	}
}

func TestValueStoreDataRoot(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	vs.Set("data.aws_region.current", eval.Object(map[string]eval.Value{"name": eval.String("us-east-1")}))
	scope := vs.ScopeFor(ex.ByAddr["aws_network_interface.reader"])
	data, ok := scope.Lookup("data")
	if !ok {
		t.Fatal("data root missing")
	}
	region, err := data.GetAttr("aws_region")
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := region.GetAttr("current")
	if name, _ := cur.GetAttr("name"); name.AsString() != "us-east-1" {
		t.Errorf("data value = %v", cur)
	}
}

func TestScopeExposesOnlyReferencedGroups(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	scope := vs.ScopeFor(ex.ByAddr["aws_subnet.s[0]"])
	if _, ok := scope.Lookup("aws_vpc"); !ok {
		t.Error("referenced root aws_vpc missing")
	}
	for _, root := range []string{"aws_subnet", "aws_storage_bucket", "aws_network_interface", "module"} {
		if _, ok := scope.Lookup(root); ok {
			t.Errorf("unreferenced root %q exposed", root)
		}
	}
}

// A declaration that names its own resource sees its own group: siblings
// evaluated earlier (address order) are known, later ones unknown.
func TestSelfReferenceSeesEarlierSiblings(t *testing.T) {
	ex := expandForValues(t, `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 3
  name       = count.index == 0 ? "first" : "after-${aws_subnet.s[0].name}"
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
`)
	s1 := ex.ByAddr["aws_subnet.s[1]"]
	if !s1.RefsSelf || len(s1.DependsOn) != 1 || s1.DependsOn[0] != "aws_vpc.main" {
		t.Fatalf("RefsSelf = %v, DependsOn = %v", s1.RefsSelf, s1.DependsOn)
	}
	p, diags := Compute(context.Background(), ex, state.New(), Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	for _, addr := range []string{"aws_subnet.s[1]", "aws_subnet.s[2]"} {
		if got := p.Changes[addr].After["name"]; !got.Equal(eval.String("after-first")) {
			t.Errorf("%s name = %v, want after-first", addr, got)
		}
	}

	vs := NewValueStore(ex)
	vs.Set("aws_subnet.s[0]", eval.Object(map[string]eval.Value{"name": eval.String("first")}))
	root, _ := vs.ScopeFor(s1).Lookup("aws_subnet")
	group, err := root.GetAttr("s")
	if err != nil || group.Kind() != eval.KindList || len(group.AsList()) != 3 {
		t.Fatalf("own group = %v, %v", group, err)
	}
	if list := group.AsList(); list[0].IsUnknown() || !list[1].IsUnknown() || !list[2].IsUnknown() {
		t.Errorf("own group = %v, want [known, unknown, unknown]", list)
	}
}

// A child module's counted resource read through module.<call>.<output> is
// the same value as the group read directly inside the module: one assembly
// rule, index gaps padded with unknown in both.
func TestModuleOutputMatchesDirectGroupRead(t *testing.T) {
	resolver := config.MapResolver{"./net": {"net.ccl": `
resource "aws_vpc" "main" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 3
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}

resource "aws_network_interface" "inside" {
  name      = "inside"
  subnet_id = aws_subnet.s[0].id
}

output "subnets" {
  value = aws_subnet.s
}
`}}
	ex := expandWithModules(t, `
module "net" {
  source = "./net"
}

resource "aws_network_interface" "outside" {
  name      = "outside"
  subnet_id = module.net.subnets[0].id
}
`, resolver)
	vs := NewValueStore(ex)
	vs.Set("module.net.aws_subnet.s[0]", eval.Object(map[string]eval.Value{"id": eval.String("sub-0")}))
	vs.Set("module.net.aws_subnet.s[2]", eval.Object(map[string]eval.Value{"id": eval.String("sub-2")}))

	read := func() (direct, viaOutput eval.Value) {
		t.Helper()
		root, _ := vs.ScopeFor(ex.ByAddr["module.net.aws_network_interface.inside"]).Lookup("aws_subnet")
		direct, err := root.GetAttr("s")
		if err != nil {
			t.Fatal(err)
		}
		mod, ok := vs.ScopeFor(ex.ByAddr["aws_network_interface.outside"]).Lookup("module")
		if !ok {
			t.Fatal("module root missing")
		}
		net, _ := mod.GetAttr("net")
		viaOutput, err = net.GetAttr("subnets")
		if err != nil {
			t.Fatal(err)
		}
		return direct, viaOutput
	}
	direct, viaOutput := read()
	if len(direct.AsList()) != 3 || !direct.AsList()[1].IsUnknown() {
		t.Fatalf("direct read = %v, want 3 elements with an unknown middle", direct)
	}
	if !viaOutput.Equal(direct) {
		t.Errorf("module.net.subnets = %v, direct aws_subnet.s = %v", viaOutput, direct)
	}

	// A write inside the module reaches the cached module root.
	vs.Set("module.net.aws_subnet.s[1]", eval.Object(map[string]eval.Value{"id": eval.String("sub-1")}))
	direct, viaOutput = read()
	if id, _ := viaOutput.AsList()[1].GetAttr("id"); !viaOutput.Equal(direct) || id.AsString() != "sub-1" {
		t.Errorf("after write: module.net.subnets = %v, direct = %v", viaOutput, direct)
	}
}

func TestValueStoreSetUnindexedAddrIsSafe(t *testing.T) {
	// A store with no configuration behind it may be Set addresses it does
	// not index; that must not panic or corrupt anything.
	vs := NewValueStore(&config.Expansion{ByAddr: map[string]*config.Instance{}})
	vs.Set("aws_vpc.ghost", eval.Object(map[string]eval.Value{"id": eval.String("x")}))
	if v, ok := vs.Get("aws_vpc.ghost"); !ok || v.IsUnknown() {
		t.Fatalf("get = %v, %v", v, ok)
	}
}
