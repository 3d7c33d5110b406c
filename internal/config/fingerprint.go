package config

import (
	"hash"
	"hash/fnv"
	"slices"
	"sort"

	"cloudless/internal/hcl"
)

// Declaration fingerprinting for incremental replanning. A decl hash digests
// everything on the configuration side that can change a resource's plan
// outcome: the printed attribute expressions, count/for_each, the dependency
// set, the resolved instance addresses and regions, and — crucially — the
// VALUES of every variable and local the expressions reference, so editing a
// tfvars-style input dirties exactly the decls that read it, not the whole
// graph. What a decl hash deliberately excludes is source position: moving a
// block or reformatting a file re-plans nothing.
//
// The hash lives for one process (the replan cache is never persisted), so
// only what it separates matters, not its numeric value.

// DeclHashes fingerprints every resource-level address of the expansion.
// Two expansions that assign the same hash to an address are guaranteed to
// plan identically for it given identical prior state and identical planned
// values of its dependencies (which the dirty-subtree closure accounts for).
// The map is computed on first use and shared by every caller: read it, do
// not write it.
func (ex *Expansion) DeclHashes() map[string]uint64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.hashes == nil {
		ex.hashes = make(map[string]uint64, len(ex.Instances))
		hashDecls(ex.Instances, ex.hashes)
	}
	return ex.hashes
}

// hashDecls adds to out the decl hash of every declaration in insts, an
// address-sorted list in which each declaration's instances sit back to back.
func hashDecls(insts []*Instance, out map[string]uint64) {
	for i := 0; i < len(insts); {
		first := insts[i]
		j := i + 1
		for j < len(insts) && insts[j].decl == first.decl && insts[j].ModulePath == first.ModulePath {
			j++
		}
		out[first.ResourceAddr()] = declHash(insts[i:j])
		i = j
	}
}

// declAST is the share of a decl hash that comes from the declaration's AST
// alone. The AST is immutable after Load, so it is computed once per
// Resource, however often its module is expanded and replanned.
type declAST struct {
	// digest covers mode, type and name, and every expression of the block
	// (attributes by name, count, for_each) printed canonically.
	digest uint64
	// refs are the var.<name> / local.<name> roots those expressions name,
	// once each, in the order the digest met them.
	refs []scopeRef
	// dynamic reports an expression that reaches var or local without a
	// static attribute name (var["x"], keys(local)): it reads every one.
	dynamic bool
}

type scopeRef struct{ root, name string }

func (r *Resource) ast() *declAST {
	r.astOnce.Do(func() {
		h := fnv.New64a()
		var refs []scopeRef
		dynamic := false
		seen := map[scopeRef]bool{}
		add := func(label string, e hcl.Expression) {
			if e == nil {
				return
			}
			writeStrings(h, label, hcl.FormatExpr(e))
			for _, tr := range e.Variables() {
				ref, ok := staticScopeRef(tr)
				switch {
				case !ok:
					dynamic = true
				case ref.root != "" && !seen[ref]:
					seen[ref] = true
					refs = append(refs, ref)
				}
			}
		}
		writeStrings(h, string(rune(r.Mode)), r.Type, r.Name)
		names := make([]string, 0, len(r.Attrs))
		for name := range r.Attrs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			add("a:"+name, r.Attrs[name])
		}
		add("count", r.Count)
		add("for_each", r.ForEach)
		r.astMemo = declAST{digest: h.Sum64(), refs: refs, dynamic: dynamic}
	})
	return &r.astMemo
}

// exprScopeRefs returns the var.<name> and local.<name> roots an expression
// names with a static attribute name, once each.
func exprScopeRefs(e hcl.Expression) []scopeRef {
	var refs []scopeRef
	for _, tr := range e.Variables() {
		if ref, ok := staticScopeRef(tr); ok && ref.root != "" && !slices.Contains(refs, ref) {
			refs = append(refs, ref)
		}
	}
	return refs
}

// staticScopeRef names the var.<name> or local.<name> a traversal reads. It
// returns a zero ref for a traversal rooted elsewhere, and false for one
// that reaches var or local without a static attribute name.
func staticScopeRef(tr hcl.Traversal) (scopeRef, bool) {
	root := tr.RootName()
	if root != "var" && root != "local" {
		return scopeRef{}, true
	}
	if len(tr) < 2 {
		return scopeRef{}, false
	}
	attr, ok := tr[1].(hcl.TraverseAttr)
	return scopeRef{root, attr.Name}, ok
}

// declHash digests one declaration through its instances: the memoized AST
// share, plus what an expansion can change.
func declHash(insts []*Instance) uint64 {
	first := insts[0]
	ast := first.decl.ast()
	h := fnv.New64a()
	writeStrings(h, first.ModulePath)
	writeU64(h, ast.digest)
	writeStrings(h, first.DependsOn...)

	// Referenced variable and local VALUES: a changed input must dirty its
	// readers even though the printed expressions are unchanged. The values
	// come from the instance scope, which bound them at expansion; hashing
	// the referenced root attribute (var.zones, local.tags) is granular
	// enough that unrelated inputs stay clean.
	for _, ref := range ast.refs {
		var hv uint64
		if obj, ok := first.Scope.Lookup(ref.root); ok {
			if v, err := obj.GetAttr(ref.name); err == nil {
				hv = v.Hash()
			}
		}
		writeStrings(h, "v", ref.root, ref.name)
		writeU64(h, hv)
	}

	// Instance addressing: count/for_each changes surface here, as do
	// provider-driven region moves.
	for _, inst := range insts {
		writeStrings(h, "i", inst.Addr, inst.Region)
	}
	return h.Sum64()
}

func writeStrings(h hash.Hash64, parts ...string) {
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
}

func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}

// DirtyDecls compares two hash sets and returns the resource-level addresses
// that changed, appeared, or disappeared, sorted — the seed set for the
// incremental planner's impact-scope closure.
func DirtyDecls(old, new map[string]uint64) []string {
	set := map[string]bool{}
	for addr, h := range new {
		if oh, ok := old[addr]; !ok || oh != h {
			set[addr] = true
		}
	}
	for addr := range old {
		if _, ok := new[addr]; !ok {
			set[addr] = true
		}
	}
	out := make([]string, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}
