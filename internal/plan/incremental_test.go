package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// encodePlan serializes everything plan consumers can observe — changes with
// full attribute sets, the execution graph, and the summary — so tests can
// assert byte-identity between plans produced by different strategies
// (full vs cached).
func encodePlan(p *Plan) string {
	var b strings.Builder
	addrs := make([]string, 0, len(p.Changes))
	for a := range p.Changes {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	attrLine := func(m map[string]eval.Value) string {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&sb, " %s=%s", n, m[n].String())
		}
		return sb.String()
	}
	for _, a := range addrs {
		ch := p.Changes[a]
		fmt.Fprintf(&b, "%s %s type=%s region=%s id=%s\n", a, ch.Action, ch.Type, ch.Region, ch.ID)
		fmt.Fprintf(&b, "  before:%s\n  after:%s\n", attrLine(ch.Before), attrLine(ch.After))
		fmt.Fprintf(&b, "  changed=%v forced=%v deps=%v\n", ch.ChangedAttrs, ch.ForcedBy, ch.Deps)
	}
	for _, n := range p.Graph.Nodes() {
		deps := p.Graph.Dependencies(n)
		sort.Strings(deps)
		fmt.Fprintf(&b, "g %s <- %v\n", n, deps)
	}
	b.WriteString(p.Summary())
	return b.String()
}

func TestReplanCacheCleanReplay(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	cache := NewReplanCache()

	p1 := computeOK(t, ex, prior, Options{Cache: cache})
	if st := cache.LastStats(); st.Invalidation != "cold" {
		t.Fatalf("first plan invalidation = %q, want cold", st.Invalidation)
	}
	if p1.EvaluatedInstances == 0 {
		t.Fatal("cold plan evaluated nothing")
	}

	p2 := computeOK(t, ex, prior, Options{Cache: cache})
	if st := cache.LastStats(); st.Invalidation != "clean" {
		t.Fatalf("second plan invalidation = %q, want clean", st.Invalidation)
	}
	if p2.EvaluatedInstances != 0 {
		t.Fatalf("clean replan evaluated %d instances, want 0", p2.EvaluatedInstances)
	}
	full := computeOK(t, ex, prior, Options{})
	if encodePlan(p2) != encodePlan(full) {
		t.Fatalf("replayed plan differs from full plan:\n--- cached\n%s\n--- full\n%s",
			encodePlan(p2), encodePlan(full))
	}
}

func TestReplanCacheEditDirtiesOnlySubtree(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	cache := NewReplanCache()
	computeOK(t, ex, prior, Options{Cache: cache})

	// Edit the NIC declaration: dirties nic and its dependent vm, but not
	// the vpc/subnet upstream or the data source.
	edited := strings.Replace(webConfig, `name      = "nic"`, `name      = "nic2"`, 1)
	ex2 := expandSrc(t, edited)

	cached := computeOK(t, ex2, prior, Options{Cache: cache})
	full := computeOK(t, ex2, prior, Options{})
	if encodePlan(cached) != encodePlan(full) {
		t.Fatalf("cached edit plan differs from full plan:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cached), encodePlan(full))
	}
	st := cache.LastStats()
	if st.Invalidation != "config" {
		t.Errorf("invalidation = %q, want config", st.Invalidation)
	}
	// Only aws_network_interface.nic and aws_virtual_machine.web re-evaluate.
	if cached.EvaluatedInstances != 2 {
		t.Errorf("evaluated %d instances, want 2 (nic + vm)", cached.EvaluatedInstances)
	}
	if full.EvaluatedInstances <= cached.EvaluatedInstances {
		t.Errorf("full evaluated %d, cached %d: no savings", full.EvaluatedInstances, cached.EvaluatedInstances)
	}
}

func TestReplanCacheStateMoveDirtiesOnlySubtree(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	cache := NewReplanCache()
	computeOK(t, ex, prior, Options{Cache: cache})

	// A commit elsewhere moved the serial and changed one address (as an
	// apply or drift reconcile would): only that subtree re-plans.
	moved := prior.Clone()
	moved.Serial++
	setAttr(moved, "aws_subnet.s[1]", "cidr_block", eval.String("10.9.9.0/24"))

	cached := computeOK(t, ex, moved, Options{Cache: cache})
	full := computeOK(t, ex, moved, Options{})
	if encodePlan(cached) != encodePlan(full) {
		t.Fatalf("cached state-move plan differs from full plan:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cached), encodePlan(full))
	}
	st := cache.LastStats()
	if st.Invalidation != "state" {
		t.Errorf("invalidation = %q, want state", st.Invalidation)
	}
	if st.DirtyState != 1 {
		t.Errorf("dirty state seeds = %d, want 1", st.DirtyState)
	}
	if cached.EvaluatedInstances >= full.EvaluatedInstances {
		t.Errorf("cached evaluated %d >= full %d", cached.EvaluatedInstances, full.EvaluatedInstances)
	}
}

// TestReplanCacheValidatesByContentUnderNewPointers: a prior that shares no
// record with the one the cache planned against — a cloud refresh or a
// reopened engine rebuilds every record — still replays what did not change
// in content, and dirties exactly what did.
func TestReplanCacheValidatesByContentUnderNewPointers(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	cache := NewReplanCache()
	computeOK(t, ex, prior, Options{Cache: cache})

	rebuilt := func() *state.State {
		s := state.New()
		s.Serial = prior.Serial
		for _, addr := range prior.Addrs() {
			s.Set(prior.Get(addr).Clone())
		}
		return s
	}
	same := rebuilt()
	p := computeOK(t, ex, same, Options{Cache: cache})
	if st := cache.LastStats(); st.Invalidation != "clean" || p.EvaluatedInstances != 0 {
		t.Fatalf("equal content under new pointers: invalidation %q, %d evaluated; want a clean replay",
			st.Invalidation, p.EvaluatedInstances)
	}
	// The cache adopted the new pointers: the same records again match on
	// identity, and the old ones still match on content.
	for _, s := range []*state.State{same, prior} {
		if p := computeOK(t, ex, s, Options{Cache: cache}); p.EvaluatedInstances != 0 {
			t.Fatalf("replay after adopting new pointers evaluated %d instances", p.EvaluatedInstances)
		}
	}

	drifted := rebuilt()
	setAttr(drifted, "aws_subnet.s[1]", "cidr_block", eval.String("10.9.9.0/24"))
	cached := computeOK(t, ex, drifted, Options{Cache: cache})
	full := computeOK(t, ex, drifted, Options{})
	if encodePlan(cached) != encodePlan(full) {
		t.Fatalf("cached plan over a drifted, rebuilt prior differs from full plan:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cached), encodePlan(full))
	}
	if st := cache.LastStats(); st.Invalidation != "state" || st.DirtyState != 1 {
		t.Errorf("stats = %+v, want one state-dirty seed", st)
	}
	// subnet group (2) + its dependents nic and vm.
	if cached.EvaluatedInstances != 4 {
		t.Errorf("evaluated %d instances, want 4 (the subnets, nic, vm)", cached.EvaluatedInstances)
	}
}

// TestReplanCacheSharesChanges: a replayed plan carries the cached Change's
// maps and slices, bound to the new expansion's instance.
func TestReplanCacheSharesChanges(t *testing.T) {
	prior := stateFromPlanAssumingIDs(t, expandSrc(t, webConfig))
	setAttr(prior, "aws_vpc.main", "name", eval.String("drifted"))
	cache := NewReplanCache()
	ex1, ex2 := expandSrc(t, webConfig), expandSrc(t, webConfig)
	first := computeOK(t, ex1, prior, Options{Cache: cache}).Changes["aws_vpc.main"]
	again := computeOK(t, ex2, prior, Options{Cache: cache}).Changes["aws_vpc.main"]
	if first.Action != ActionUpdate || again.Action != ActionUpdate {
		t.Fatalf("actions = %s, %s; want update", first.Action, again.Action)
	}
	if again.Instance != ex2.ByAddr["aws_vpc.main"] || first.Instance != ex1.ByAddr["aws_vpc.main"] {
		t.Error("a replayed change must carry its own expansion's instance")
	}
	if &again.ChangedAttrs[0] != &first.ChangedAttrs[0] {
		t.Error("replay copied the cached change's slices")
	}
}

// TestReplanCacheForEachValueDirtiesDeclaration: a for_each value reaches
// the plan through each.value only.
func TestReplanCacheForEachValueDirtiesDeclaration(t *testing.T) {
	src := `
variable "buckets" { default = { a = "x" } }
resource "aws_storage_bucket" "b" {
  for_each = var.buckets
  name     = each.value
}
`
	vars := func(name string) map[string]eval.Value {
		return map[string]eval.Value{"buckets": eval.Object(map[string]eval.Value{"a": eval.String(name)})}
	}
	cache := NewReplanCache()
	computeOK(t, expandSrcVars(t, src, vars("x")), state.New(), Options{Cache: cache})
	ex := expandSrcVars(t, src, vars("y"))
	cached, full := computeOK(t, ex, state.New(), Options{Cache: cache}), computeOK(t, ex, state.New(), Options{})
	if encodePlan(cached) != encodePlan(full) {
		t.Fatalf("cached plan after a for_each value change differs from full plan:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cached), encodePlan(full))
	}
}

func TestReplanCacheComposesWithTargetScope(t *testing.T) {
	ex := expandSrc(t, webConfig)
	prior := stateFromPlanAssumingIDs(t, ex)
	cache := NewReplanCache()
	computeOK(t, ex, prior, Options{Cache: cache})

	// Edit two independent decls, then target only one of them: the cached
	// targeted plan must match the uncached targeted plan exactly.
	edited := strings.Replace(webConfig, `name       = "main"`, `name       = "main2"`, 1)
	edited = strings.Replace(edited, `name    = "web"`, `name    = "web2"`, 1)
	ex2 := expandSrc(t, edited)

	target := []string{"aws_virtual_machine.web"}
	cached := computeOK(t, ex2, prior, Options{Cache: cache, ImpactScope: target})
	full := computeOK(t, ex2, prior, Options{ImpactScope: target})
	if encodePlan(cached) != encodePlan(full) {
		t.Fatalf("cached targeted plan differs:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cached), encodePlan(full))
	}
	if got := cached.Changes["aws_vpc.main"]; got != nil && got.Action != ActionNoop {
		t.Errorf("out-of-target vpc planned as %s", got.Action)
	}

	// After the targeted plan, a full cached plan must still see the vpc
	// edit (the skipped decl was not wrongly committed as clean).
	cachedFull := computeOK(t, ex2, prior, Options{Cache: cache})
	uncachedFull := computeOK(t, ex2, prior, Options{})
	if encodePlan(cachedFull) != encodePlan(uncachedFull) {
		t.Fatalf("post-target cached full plan differs:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cachedFull), encodePlan(uncachedFull))
	}
	if cachedFull.Changes["aws_vpc.main"].Action != ActionUpdate {
		t.Errorf("vpc edit lost after targeted plan: %s", cachedFull.Changes["aws_vpc.main"].Action)
	}
}

func TestReplanCacheVariableEditDirtiesReaders(t *testing.T) {
	src := `
variable "vm_name" { default = "web" }

resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_virtual_machine" "web" {
  name = var.vm_name
}
`
	exA := expandSrcVars(t, src, map[string]eval.Value{"vm_name": eval.String("web")})
	prior := state.New()
	cache := NewReplanCache()
	computeOK(t, exA, prior, Options{Cache: cache})

	exB := expandSrcVars(t, src, map[string]eval.Value{"vm_name": eval.String("web2")})
	cached := computeOK(t, exB, prior, Options{Cache: cache})
	full := computeOK(t, exB, prior, Options{})
	if encodePlan(cached) != encodePlan(full) {
		t.Fatalf("variable-edit cached plan differs from full:\n--- cached\n%s\n--- full\n%s",
			encodePlan(cached), encodePlan(full))
	}
	// Only the decl reading the variable re-evaluates.
	if cached.EvaluatedInstances != 1 {
		t.Errorf("evaluated %d instances, want 1 (vm only)", cached.EvaluatedInstances)
	}
}

func expandSrcVars(t *testing.T, src string, vars map[string]eval.Value) *config.Expansion {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatalf("load: %s", diags.Error())
	}
	ex, diags := config.Expand(m, vars, nil)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	return ex
}
