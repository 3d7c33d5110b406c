package config

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cloudless/internal/eval"
	"cloudless/internal/workload"
)

// sameExpansion fails the test unless a re-expansion got is what a fresh
// Expand, want, of the same module and variables gives: the same instances
// (addresses, keys, regions, dependencies, reference flags), the same
// outputs with the same values, provider settings, decl hashes and shape.
func sameExpansion(t *testing.T, step string, got, want *Expansion) {
	t.Helper()
	if len(got.Instances) != len(want.Instances) || len(got.ByAddr) != len(want.ByAddr) {
		t.Fatalf("%s: %d instances (%d by address), want %d (%d)", step,
			len(got.Instances), len(got.ByAddr), len(want.Instances), len(want.ByAddr))
	}
	for i, w := range want.Instances {
		g := got.Instances[i]
		if g.Addr != w.Addr || g.ModulePath != w.ModulePath || g.Mode != w.Mode || g.Type != w.Type ||
			g.Name != w.Name || g.Region != w.Region || g.Provider != w.Provider || g.Key != w.Key ||
			g.RefsSelf != w.RefsSelf || g.RefsModule != w.RefsModule || g.decl.Key() != w.decl.Key() ||
			// Expand loads a child module afresh; the root module is one AST.
			(g.ModulePath == "" && g.decl != w.decl) ||
			!slices.Equal(g.DependsOn, w.DependsOn) {
			t.Fatalf("%s: instance %d is %+v, want %+v", step, i, *g, *w)
		}
		if got.ByAddr[w.Addr] != g {
			t.Fatalf("%s: ByAddr[%s] is not the listed instance", step, w.Addr)
		}
	}
	outputs := func(outs map[string]*OutputSpec) map[string]string {
		m := map[string]string{}
		for name, spec := range outs {
			v, diags := eval.Evaluate(spec.Expr, spec.Scope.Child())
			m[name] = fmt.Sprintf("%s deps=%v sensitive=%v value=%s errors=%v",
				spec.ModulePath, spec.Deps, spec.Sensitive, v, diags.HasErrors())
		}
		return m
	}
	if g, w := outputs(got.Outputs), outputs(want.Outputs); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: outputs %v, want %v", step, g, w)
	}
	if len(got.ModuleOutputs) != len(want.ModuleOutputs) {
		t.Fatalf("%s: %d module output sets, want %d", step, len(got.ModuleOutputs), len(want.ModuleOutputs))
	}
	for call, outs := range want.ModuleOutputs {
		if g, w := outputs(got.ModuleOutputs[call]), outputs(outs); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: module %s outputs %v, want %v", step, call, g, w)
		}
	}
	if !reflect.DeepEqual(got.Providers, want.Providers) {
		t.Fatalf("%s: providers %v, want %v", step, got.Providers, want.Providers)
	}
	if g, w := got.DeclHashes(), want.DeclHashes(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: decl hashes moved for %v", step, DirtyDecls(w, g))
	}
	gs, ws := got.Shape(), want.Shape()
	if !slices.Equal(gs.Order, ws.Order) || !reflect.DeepEqual(gs.Groups, ws.Groups) ||
		(gs.Err == nil) != (ws.Err == nil) {
		t.Fatalf("%s: shape order %v groups %v, want %v %v", step, gs.Order, gs.Groups, ws.Order, ws.Groups)
	}
}

// TestReexpandMatchesExpandProperty: random SetVar sequences over
// workload.EditableDAG, one variable per VM, re-expanded from the previous
// expansion each time, give what a fresh Expand gives. Plans are warmed on
// some steps and not others, so the shape and the decl hashes are carried
// over from a parent that has them and built fresh on one that does not.
func TestReexpandMatchesExpandProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		files, vms := workload.EditableDAG(20+rng.Intn(60), seed)
		m, diags := Load(files)
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		vars := map[string]eval.Value{}
		ex := expandModule(t, m, vars)
		for step := 0; step < 25; step++ {
			var changed []string
			for k := rng.Intn(3); k >= 0; k-- {
				name := fmt.Sprintf("rev_%d", rng.Intn(vms))
				vars[name] = eval.String(fmt.Sprint(rng.Intn(4)))
				changed = append(changed, name)
			}
			if rng.Intn(2) == 0 {
				ex.Shape()
				ex.DeclHashes()
			}
			next, diags := ex.Reexpand(vars, nil, changed)
			if diags.HasErrors() {
				t.Fatalf("seed %d step %d: %s", seed, step, diags.Error())
			}
			sameExpansion(t, fmt.Sprintf("seed %d step %d (%v)", seed, step, changed), next, expandModule(t, m, vars))
			ex = next
		}
	}
}

// fallbackResolver is the child module readersModule calls.
var fallbackResolver = MapResolver{"./child": {"child.ccl": `
variable "name" {}
resource "aws_vpc" "main" {
  name       = var.name
  cidr_block = "10.9.0.0/16"
}
output "vpc_id" { value = aws_vpc.main.id }
`}}

// readersModule reads one variable in each place a variable can be read.
const readersModule = `
variable "in_local" { default = "l" }
variable "in_count" { default = 2 }
variable "in_each" { default = { a = "x" } }
variable "in_provider" { default = "us-east-1" }
variable "in_module" { default = "m" }
variable "in_output" { default = "o" }
variable "plain" { default = "p" }
variable "unread" { default = "u" }

locals {
  tag = "t-${var.in_local}"
}

provider "aws" { region = var.in_provider }

module "child" {
  source = "./child"
  name   = var.in_module
}

resource "aws_vpc" "v" {
  name       = "v-${var.plain}"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "counted" {
  count      = var.in_count
  name       = "c-${count.index}"
  vpc_id     = aws_vpc.v.id
  cidr_block = cidrsubnet(aws_vpc.v.cidr_block, 8, count.index)
}
resource "aws_storage_bucket" "each" {
  for_each = var.in_each
  name     = "${each.key}-${each.value}"
}
resource "aws_storage_bucket" "tagged" {
  name = local.tag
}
resource "aws_security_group" "sg" {
  name   = "sg"
  vpc_id = module.child.vpc_id
}

output "out" { value = "${var.in_output}-${aws_vpc.v.id}" }
output "plain" { value = var.in_output }
`

// TestReexpandFallbackClasses: a variable read by a local, a provider block
// or a module argument re-expands everything; one read by count, for_each, a
// resource attribute or an output re-expands its readers alone. Every class
// re-expands to what a fresh Expand gives, over random SetVar sequences.
func TestReexpandFallbackClasses(t *testing.T) {
	m := loadOK(t, readersModule)
	for name, everything := range map[string]bool{
		"in_local": true, "in_provider": true, "in_module": true,
		"in_count": false, "in_each": false, "in_output": false, "plain": false, "unread": false,
	} {
		if got := m.readers().dirty([]string{name}) == nil; got != everything {
			t.Errorf("changing var.%s re-expands everything: %v, want %v", name, got, everything)
		}
	}
	if d := m.readers().dirty([]string{"in_count", "in_output"}); d == nil ||
		len(d.order) != 1 || d.order[0].Key() != "aws_subnet.counted" || !d.outputs["out"] || !d.outputs["plain"] {
		t.Errorf("changing var.in_count and var.in_output re-expands %+v", d)
	}

	values := map[string][]eval.Value{
		"in_local":    {eval.String("l2"), eval.String("l3")},
		"in_count":    {eval.Int(0), eval.Int(1), eval.Int(3)},
		"in_each":     {eval.Object(map[string]eval.Value{"a": eval.String("y")}), eval.Strings("p", "q"), eval.Object(nil)},
		"in_provider": {eval.String("eu-west-1"), eval.String("us-west-2")},
		"in_module":   {eval.String("m2"), eval.String("m3")},
		"in_output":   {eval.String("o2"), eval.String("o3")},
		"plain":       {eval.String("p2"), eval.String("p3")},
		"unread":      {eval.String("u2")},
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(1))
	vars := map[string]eval.Value{}
	ex, diags := Expand(m, vars, fallbackResolver)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	for step := 0; step < 60; step++ {
		name := names[rng.Intn(len(names))]
		vars[name] = values[name][rng.Intn(len(values[name]))]
		if rng.Intn(2) == 0 {
			ex.Shape()
			ex.DeclHashes()
		}
		next, diags := ex.Reexpand(vars, fallbackResolver, []string{name})
		if diags.HasErrors() {
			t.Fatalf("step %d (%s): %s", step, name, diags.Error())
		}
		want, diags := Expand(m, vars, fallbackResolver)
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		sameExpansion(t, fmt.Sprintf("step %d (%s=%s)", step, name, vars[name]), next, want)
		ex = next
	}
}

// TestReexpandDynamicReadReexpandsEverything: an expression that reads var
// without a static attribute name reads every variable.
func TestReexpandDynamicReadReexpandsEverything(t *testing.T) {
	m := loadOK(t, `
variable "a" { default = "x" }
variable "b" { default = "y" }
resource "aws_vpc" "v" {
  name       = var["a"]
  cidr_block = "10.0.0.0/16"
}
resource "aws_vpc" "w" {
  name       = var.b
  cidr_block = "10.1.0.0/16"
}
`)
	if d := m.readers().dirty([]string{"b"}); d != nil {
		t.Errorf("changing var.b beside a dynamic read re-expands %+v, want everything", d)
	}
	vars := map[string]eval.Value{"a": eval.String("x2")}
	ex := expandModule(t, m, nil)
	next, diags := ex.Reexpand(vars, nil, []string{"a"})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	sameExpansion(t, "a=x2", next, expandModule(t, m, vars))
}

// TestReexpandRejectsWhatExpandRejects: a value moduleScope refuses gives the
// diagnostics Expand gives, and an error an expansion of a dirty declaration
// reports is Expand's too.
func TestReexpandRejectsWhatExpandRejects(t *testing.T) {
	m := loadOK(t, readersModule)
	ex, diags := Expand(m, nil, fallbackResolver)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	for name, v := range map[string]eval.Value{
		"in_count": eval.Int(-1),
		"nosuch":   eval.String("x"),
	} {
		vars := map[string]eval.Value{name: v}
		_, got := ex.Reexpand(vars, fallbackResolver, []string{name})
		_, want := Expand(m, vars, fallbackResolver)
		if !want.HasErrors() {
			t.Fatalf("%s: Expand accepted %s", name, v)
		}
		if got.Error() != want.Error() {
			t.Errorf("%s: Reexpand says %q, Expand says %q", name, got.Error(), want.Error())
		}
	}
}

// TestExpansionMemosAreSafeForConcurrentUse: plans share one expansion, so
// its shape and decl hashes are built on first use by whichever goroutine
// asks first, while another derives a re-expansion from it.
func TestExpansionMemosAreSafeForConcurrentUse(t *testing.T) {
	m := loadEditable(t, nil)
	ex := expandModule(t, m, nil)
	want := expandModule(t, m, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vars := map[string]eval.Value{fmt.Sprintf("rev_%d", g): eval.String("1")}
			if _, diags := ex.Reexpand(vars, nil, []string{fmt.Sprintf("rev_%d", g)}); diags.HasErrors() {
				t.Error(diags.Error())
			}
			if !reflect.DeepEqual(ex.DeclHashes(), want.DeclHashes()) || !slices.Equal(ex.Shape().Order, want.Shape().Order) {
				t.Error("concurrent first use built a different shape or decl hashes")
			}
		}(g)
	}
	wg.Wait()
}

// retainedPerEdit re-expands every VM of workload.EditableDAG(n) once, one
// edit at a time, keeping only the latest expansion (with its shape and decl
// hashes built, as a workspace's plans build them), and returns how many
// heap bytes each edited declaration left behind, and how many variables the
// module declares.
func retainedPerEdit(t *testing.T, n int) (perEdit float64, vars int) {
	files, vms := workload.EditableDAG(n, 1)
	m, diags := Load(files)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	values := make(map[string]eval.Value, vms)
	for i := 0; i < vms; i++ {
		values[fmt.Sprintf("rev_%d", i)] = eval.String("0")
	}
	ex := expandModule(t, m, values)
	edit := func(i int) {
		name := fmt.Sprintf("rev_%d", i)
		values[name] = eval.String(fmt.Sprint(i))
		next, diags := ex.Reexpand(values, nil, []string{name})
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		next.Shape()
		next.DeclHashes()
		ex = next
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	edit(0)
	before := heap()
	for i := 1; i < vms; i++ {
		edit(i)
	}
	after := heap()
	runtime.KeepAlive(ex)
	return (float64(after) - float64(before)) / float64(vms-1), len(m.Variables)
}

// TestReexpandRetainsNoWholeScopePerEdit: what an edit leaves on the heap
// does not grow with the number of variables. A re-expanded declaration
// that kept its edit's root scope, whose var object binds every variable,
// would keep one such copy per declaration edited, quadratic in the
// estate's size once an edit stream has touched every declaration.
func TestReexpandRetainsNoWholeScopePerEdit(t *testing.T) {
	small, smallVars := retainedPerEdit(t, 150)
	large, largeVars := retainedPerEdit(t, 1200)
	t.Logf("retained per edited declaration: %.0f B at %d variables, %.0f B at %d", small, smallVars, large, largeVars)
	// Measured flat at about 1.5 KB on both sizes; with the whole scope kept
	// it was 18 KB at 75 variables and 104 KB at 600.
	if large > 1.5*small+512 {
		t.Errorf("an edited declaration retains %.0f B at %d variables against %.0f B at %d: retention grows with the variable count",
			large, largeVars, small, smallVars)
	}
}
