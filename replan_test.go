package cloudless_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	cloudless "cloudless"
	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/workload"
)

// encodeFacadePlan canonically serializes everything a plan consumer can
// observe, so tests can assert byte-identity between the cached (Replan) and
// uncached (Plan) paths. EvaluatedInstances is deliberately excluded: it is
// the cost metric the cache exists to shrink, not plan content.
func encodeFacadePlan(p *cloudless.Plan) string {
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

// TestReplanMatchesFullPlanOnEveryBackend is the facade-level acceptance
// property for incremental replanning: on every storage backend, Replan is
// byte-identical to Plan through the whole lifecycle — cold, clean, config edit, apply-driven
// serial advance, and out-of-band drift — while re-evaluating only dirty
// subtrees.
func TestReplanMatchesFullPlanOnEveryBackend(t *testing.T) {
	for _, backend := range statedb.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			ctx := context.Background()
			dir := ""
			if backend == cloudless.BackendWAL {
				dir = t.TempDir()
			}
			sim := newSim()
			s := openStackOn(t, sim, backend, dir)

			// Deploy, then warm the cache: the first Replan is a full plan.
			p, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Replan(ctx); err != nil {
				t.Fatal(err)
			}
			if st := s.ReplanStats(); st.Invalidation != "cold" {
				t.Fatalf("warming invalidation = %q, want cold", st.Invalidation)
			}

			// Clean: full replay, zero evaluation, identical plan.
			rp, err := s.Replan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if encodeFacadePlan(rp) != encodeFacadePlan(fp) {
				t.Fatalf("clean replan differs from full plan:\n--- replan\n%s\n--- plan\n%s",
					encodeFacadePlan(rp), encodeFacadePlan(fp))
			}
			if st := s.ReplanStats(); st.Invalidation != "clean" {
				t.Errorf("invalidation = %q, want clean", st.Invalidation)
			}
			if rp.EvaluatedInstances != 0 {
				t.Errorf("clean replan evaluated %d instances, want 0", rp.EvaluatedInstances)
			}

			// Config edit: scaling vm_count dirties the NIC and VM decls
			// (their instance sets change); the VPC and subnet replay.
			if err := s.SetVar("vm_count", 3); err != nil {
				t.Fatal(err)
			}
			rp2, err := s.Replan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fp2, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if encodeFacadePlan(rp2) != encodeFacadePlan(fp2) {
				t.Fatalf("post-edit replan differs from full plan:\n--- replan\n%s\n--- plan\n%s",
					encodeFacadePlan(rp2), encodeFacadePlan(fp2))
			}
			if st := s.ReplanStats(); st.Invalidation != "config" {
				t.Errorf("invalidation = %q, want config", st.Invalidation)
			}
			if rp2.EvaluatedInstances >= fp2.EvaluatedInstances {
				t.Errorf("edit replan evaluated %d >= full %d: no savings",
					rp2.EvaluatedInstances, fp2.EvaluatedInstances)
			}
			if rp2.Creates != 2 { // 1 NIC + 1 VM
				t.Errorf("scale-out replan: %s", rp2.Summary())
			}

			// Apply the scale-out: the serial advance dirties exactly the
			// committed addresses.
			if _, _, err := s.Apply(ctx, rp2, cloudless.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
			rp3, err := s.Replan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fp3, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if encodeFacadePlan(rp3) != encodeFacadePlan(fp3) {
				t.Fatalf("post-apply replan differs from full plan")
			}
			if rp3.PendingCount() != 0 {
				t.Errorf("post-apply replan not converged: %s", rp3.Summary())
			}
			if st := s.ReplanStats(); st.Invalidation != "state" {
				t.Errorf("post-apply invalidation = %q, want state", st.Invalidation)
			}

			// Out-of-band drift: a foreign principal's edit is observed by
			// the replan's refresh and dirties the drifted subtree.
			vpcID := s.DB().Snapshot().Get("aws_vpc.net").ID
			if _, err := sim.Update(ctx, cloud.UpdateRequest{
				Type: "aws_vpc", ID: vpcID,
				Attrs:     map[string]eval.Value{"enable_dns": eval.False},
				Principal: "legacy-script",
			}); err != nil {
				t.Fatal(err)
			}
			rp4, err := s.Replan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fp4, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if encodeFacadePlan(rp4) != encodeFacadePlan(fp4) {
				t.Fatalf("post-drift replan differs from full plan:\n--- replan\n%s\n--- plan\n%s",
					encodeFacadePlan(rp4), encodeFacadePlan(fp4))
			}
			if st := s.ReplanStats(); st.Invalidation != "state" {
				t.Errorf("post-drift invalidation = %q, want state", st.Invalidation)
			}
		})
	}
}

// TestReplanCacheEquivalenceProperty: across randomized DAG workloads, a
// shared replan cache fed a stream of config edits and state perturbations
// always produces plans byte-identical to uncached full plans, with strictly
// less evaluation on the incremental steps.
func TestReplanCacheEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			files := workload.RandomDAG(20, seed)
			ex := expandFiles(t, files)
			sim := newSim()
			p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			res := apply.Apply(ctx, sim, p, apply.Options{Principal: "cloudless"})
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			st := res.State

			cache := plan.NewReplanCache()
			computeCached := func(ex2 *config.Expansion, prior *state.State) *cloudless.Plan {
				t.Helper()
				cp, diags := plan.Compute(ctx, ex2, prior, plan.Options{Cache: cache})
				if diags.HasErrors() {
					t.Fatal(diags.Error())
				}
				return cp
			}
			computeFull := func(ex2 *config.Expansion, prior *state.State) *cloudless.Plan {
				t.Helper()
				fp, diags := plan.Compute(ctx, ex2, prior, plan.Options{})
				if diags.HasErrors() {
					t.Fatal(diags.Error())
				}
				return fp
			}

			// Warm, then clean replay.
			computeCached(ex, st)
			cp := computeCached(ex, st)
			fp := computeFull(ex, st)
			if encodeFacadePlan(cp) != encodeFacadePlan(fp) {
				t.Fatalf("clean replay differs from full plan")
			}
			if cp.EvaluatedInstances != 0 {
				t.Errorf("clean replay evaluated %d instances", cp.EvaluatedInstances)
			}

			// Config edit: rename one VM.
			target := int(seed) % 3
			files["rand.ccl"] = replaceOnce(files["rand.ccl"],
				fmt.Sprintf(`name    = "r-vm-%d"`, target),
				fmt.Sprintf(`name    = "r-vm-%d-edited"`, target))
			ex2 := expandFiles(t, files)
			cp2 := computeCached(ex2, st)
			fp2 := computeFull(ex2, st)
			if encodeFacadePlan(cp2) != encodeFacadePlan(fp2) {
				t.Fatalf("post-edit cached plan differs from full plan:\n--- cached\n%s\n--- full\n%s",
					encodeFacadePlan(cp2), encodeFacadePlan(fp2))
			}
			if cp2.EvaluatedInstances >= fp2.EvaluatedInstances {
				t.Errorf("edit: cached evaluated %d >= full %d",
					cp2.EvaluatedInstances, fp2.EvaluatedInstances)
			}

			// State perturbation at an advanced serial (what an external
			// commit looks like): dirty exactly the perturbed subtree.
			moved := st.Clone()
			moved.Serial++
			addrs := moved.Addrs()
			perturbed := addrs[int(seed)%len(addrs)]
			setAttr(moved, perturbed, "name", eval.String("perturbed-"+perturbed))
			cp3 := computeCached(ex2, moved)
			fp3 := computeFull(ex2, moved)
			if encodeFacadePlan(cp3) != encodeFacadePlan(fp3) {
				t.Fatalf("post-perturbation cached plan differs from full plan:\n--- cached\n%s\n--- full\n%s",
					encodeFacadePlan(cp3), encodeFacadePlan(fp3))
			}
			if cp3.EvaluatedInstances >= fp3.EvaluatedInstances {
				t.Errorf("perturbation: cached evaluated %d >= full %d",
					cp3.EvaluatedInstances, fp3.EvaluatedInstances)
			}
		})
	}
}

// TestReexpandedPlansMatchFreshExpansionProperty: plans over an expansion
// that Reexpand derived, edit after edit, are byte-identical to plans over a
// fresh config.Expand with the same variables — full plans, and cached
// replans through one cache, whose evaluation count matches too.
func TestReexpandedPlansMatchFreshExpansionProperty(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		files, vms := workload.EditableDAG(40, seed)
		m, diags := config.Load(files)
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		vars := map[string]eval.Value{}
		ex, diags := config.Expand(m, vars, nil)
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		res := apply.Apply(ctx, newSim(), p, apply.Options{Principal: "cloudless"})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		st := res.State
		derivedCache, freshCache := plan.NewReplanCache(), plan.NewReplanCache()
		compute := func(ex *config.Expansion, cache *plan.ReplanCache) *cloudless.Plan {
			t.Helper()
			p, diags := plan.Compute(ctx, ex, st, plan.Options{Cache: cache})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			return p
		}
		compute(ex, derivedCache)
		compute(ex, freshCache)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 12; step++ {
			name := fmt.Sprintf("rev_%d", rng.Intn(vms))
			vars[name] = eval.String(fmt.Sprint(rng.Intn(3)))
			next, diags := ex.Reexpand(vars, nil, []string{name})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			fresh, diags := config.Expand(m, vars, nil)
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			got, want := compute(next, nil), compute(fresh, nil)
			if encodeFacadePlan(got) != encodeFacadePlan(want) {
				t.Fatalf("seed %d step %d: plan over the re-expansion differs:\n--- derived\n%s\n--- fresh\n%s",
					seed, step, encodeFacadePlan(got), encodeFacadePlan(want))
			}
			got, want = compute(next, derivedCache), compute(fresh, freshCache)
			if encodeFacadePlan(got) != encodeFacadePlan(want) {
				t.Fatalf("seed %d step %d: cached plan over the re-expansion differs", seed, step)
			}
			if g, w := derivedCache.LastStats(), freshCache.LastStats(); g != w {
				t.Fatalf("seed %d step %d: cache stats %+v over the re-expansion, %+v over a fresh one", seed, step, g, w)
			}
			ex = next
		}
	}
}
