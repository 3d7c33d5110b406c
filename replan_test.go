package cloudless_test

import (
	"context"
	"fmt"
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
