package config

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cloudless/internal/eval"
	"cloudless/internal/workload"
)

// loadEditable loads workload.EditableDAG — one variable per VM, read by
// that VM's declaration alone — after edit has had its way with rand.ccl.
func loadEditable(t *testing.T, edit func(src string) string) *Module {
	t.Helper()
	files, _ := workload.EditableDAG(40, 7)
	if edit != nil {
		files["rand.ccl"] = edit(files["rand.ccl"])
	}
	m, diags := Load(files)
	if diags.HasErrors() {
		t.Fatalf("load: %s", diags.Error())
	}
	return m
}

func expandModule(t *testing.T, m *Module, vars map[string]eval.Value) *Expansion {
	t.Helper()
	ex, diags := Expand(m, vars, nil)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	return ex
}

// TestDeclHashesSeparateExactlyWhatCanChangeAPlan: a decl hash moves for the
// declarations an input or an edit reaches and for no other, and never for
// layout.
func TestDeclHashesSeparateExactlyWhatCanChangeAPlan(t *testing.T) {
	m := loadEditable(t, nil)
	base := expandModule(t, m, nil).DeclHashes()
	if len(base) != 42 { // vpc, subnet group, 20 nics, 20 vms
		t.Fatalf("%d declarations hashed, want 42", len(base))
	}
	moved := func(t *testing.T, edit func(src string) string) []string {
		t.Helper()
		return DirtyDecls(base, expandModule(t, loadEditable(t, edit), nil).DeclHashes())
	}

	t.Run("variable", func(t *testing.T) {
		// Same module, re-expanded: only the reader of rev_5 moves.
		got := DirtyDecls(base, expandModule(t, m, map[string]eval.Value{"rev_5": eval.String("1")}).DeclHashes())
		if want := []string{"aws_virtual_machine.r5"}; !reflect.DeepEqual(got, want) {
			t.Errorf("changing var.rev_5 moved %v, want %v", got, want)
		}
	})
	t.Run("expression", func(t *testing.T) {
		got := moved(t, func(src string) string { return strings.Replace(src, `"r-nic-3"`, `"r-nic-3x"`, 1) })
		if want := []string{"aws_network_interface.r3"}; !reflect.DeepEqual(got, want) {
			t.Errorf("editing one expression moved %v, want %v", got, want)
		}
	})
	t.Run("count", func(t *testing.T) {
		got := moved(t, func(src string) string { return strings.Replace(src, "count      = 20", "count      = 21", 1) })
		if want := []string{"aws_subnet.r"}; !reflect.DeepEqual(got, want) {
			t.Errorf("editing count moved %v, want %v", got, want)
		}
	})
	t.Run("layout", func(t *testing.T) {
		reformat := func(src string) string {
			return strings.ReplaceAll(strings.ReplaceAll(src, " = ", "   =   "), "\n}", "\n\n}\n# trailing comment")
		}
		if got := moved(t, reformat); len(got) != 0 {
			t.Errorf("reformatting moved %v", got)
		}
		reorder := func(src string) string {
			blocks := strings.SplitAfter(src, "\n}\n")
			slices.Reverse(blocks)
			return strings.Join(blocks, "")
		}
		if got := moved(t, reorder); len(got) != 0 {
			t.Errorf("reordering blocks moved %v", got)
		}
	})
}

// TestDeclHashSeesForEachValues: a for_each value reaches the plan through
// each.value, which no attribute expression names as a variable.
func TestDeclHashSeesForEachValues(t *testing.T) {
	m := loadOK(t, `
variable "buckets" { default = { a = "x" } }
variable "other" { default = "o" }
resource "aws_storage_bucket" "b" {
  for_each = var.buckets
  name     = each.value
}
`)
	hashes := func(bucket, other string) map[string]uint64 {
		return expandModule(t, m, map[string]eval.Value{
			"buckets": eval.Object(map[string]eval.Value{"a": eval.String(bucket)}),
			"other":   eval.String(other),
		}).DeclHashes()
	}
	base := hashes("x", "o")
	if got := DirtyDecls(base, hashes("y", "o")); len(got) != 1 {
		t.Errorf("changing a for_each value moved %v, want the declaration", got)
	}
	if got := DirtyDecls(base, hashes("x", "p")); len(got) != 0 {
		t.Errorf("changing an unread variable moved %v", got)
	}
}

// TestDeclHashesMemoizeTheAST: printing and walking the expressions happens
// once per declaration, not once per expansion or replan.
func TestDeclHashesMemoizeTheAST(t *testing.T) {
	m := loadEditable(t, nil)
	mallocs := func(ex *Expansion) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ex.DeclHashes()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	first := expandModule(t, m, nil)
	second := expandModule(t, m, map[string]eval.Value{"rev_1": eval.String("1")})
	for addr, inst := range first.ByAddr {
		if inst.decl == nil || inst.decl != second.ByAddr[addr].decl {
			t.Fatalf("%s: two expansions of one module do not share the declaration", addr)
		}
	}
	cold, warm := mallocs(first), mallocs(second)
	if warm*2 > cold {
		t.Errorf("DeclHashes made %d allocations on a second expansion, %d on the first: the AST share is not reused", warm, cold)
	}
}
