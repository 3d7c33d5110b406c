package cloudless_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cloudless"
	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/rollback"
	"cloudless/internal/schema"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/validate"
	"cloudless/internal/workload"
)

func expandFiles(t *testing.T, files map[string]string) *config.Expansion {
	t.Helper()
	m, diags := config.Load(files)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	return ex
}

// TestApplyFixpointProperty: for a spread of randomized workloads, applying
// a plan and replanning yields zero pending changes — the core correctness
// invariant of any IaC engine.
func TestApplyFixpointProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			files := workload.RandomDAG(24, seed)
			ex := expandFiles(t, files)
			sim := newSim()
			p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			// Replan against the produced state AND against a cloud refresh:
			// both must be no-ops.
			for _, opts := range []plan.Options{{}, {Refresh: true, Cloud: sim}} {
				p2, diags := plan.Compute(context.Background(), ex, res.State, opts)
				if diags.HasErrors() {
					t.Fatal(diags.Error())
				}
				if p2.PendingCount() != 0 {
					for a, c := range p2.Changes {
						if c.Action != plan.ActionNoop {
							t.Logf("%s -> %s (%v)", a, c.Action, c.ChangedAttrs)
						}
					}
					t.Fatalf("not a fixpoint (refresh=%v): %s", opts.Refresh, p2.Summary())
				}
			}
			// And destroy leaves both cloud and state empty.
			dres := apply.Destroy(context.Background(), sim, res.State, apply.Options{Principal: "cloudless"})
			if err := dres.Err(); err != nil {
				t.Fatal(err)
			}
			if sim.TotalResources() != 0 || dres.State.Len() != 0 {
				t.Fatalf("destroy incomplete: cloud=%d state=%d", sim.TotalResources(), dres.State.Len())
			}
		})
	}
}

// TestIncrementalPlanSoundnessProperty: for random config deltas, the
// incremental plan scoped to the changed resources finds exactly the same
// changes as a full plan.
func TestIncrementalPlanSoundnessProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			files := workload.RandomDAG(20, seed)
			ex := expandFiles(t, files)
			sim := newSim()
			p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			st := res.State

			// Delta: rename one VM (deterministically chosen per seed).
			target := fmt.Sprintf("aws_virtual_machine.r%d", int(seed)%3)
			if st.Get(target) == nil {
				t.Skipf("workload %d has no %s", seed, target)
			}
			files["rand.ccl"] = replaceOnce(files["rand.ccl"],
				fmt.Sprintf(`name    = "r-vm-%d"`, int(seed)%3),
				fmt.Sprintf(`name    = "r-vm-%d-renamed"`, int(seed)%3))
			ex2 := expandFiles(t, files)

			full, diags := plan.Compute(context.Background(), ex2, st, plan.Options{})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			incr, diags := plan.Compute(context.Background(), ex2, st, plan.Options{
				ImpactScope: []string{target},
			})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			// Same pending operations.
			if full.PendingCount() != incr.PendingCount() {
				t.Fatalf("full=%s incr=%s", full.Summary(), incr.Summary())
			}
			for addr, fc := range full.Changes {
				if fc.Action == plan.ActionNoop {
					continue
				}
				ic, ok := incr.Changes[addr]
				if !ok || ic.Action != fc.Action {
					t.Errorf("%s: full=%s incr=%v", addr, fc.Action, ic)
				}
			}
			// And the incremental plan did strictly less evaluation work.
			if incr.EvaluatedInstances >= full.EvaluatedInstances {
				t.Errorf("incremental evaluated %d >= full %d",
					incr.EvaluatedInstances, full.EvaluatedInstances)
			}
		})
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

// TestRollbackRestoresProperty: deploy v1, apply a batch of updates (v2),
// roll back, and verify every configurable attribute matches v1 again —
// both in state and in the cloud.
func TestRollbackRestoresProperty(t *testing.T) {
	sim := newSim()
	ctx := context.Background()
	files := workload.WebTier("app", 2, 6)
	ex := expandFiles(t, files)
	p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	res := apply.Apply(ctx, sim, p, apply.Options{Principal: "cloudless"})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	v1 := res.State.Clone()

	// v2: rename all VMs via a real apply.
	files["app.ccl"] = replaceOnce(files["app.ccl"], `"app-web-${count.index}"`, `"app-web-v2-${count.index}"`)
	ex2 := expandFiles(t, files)
	p2, diags := plan.Compute(ctx, ex2, v1, plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	res2 := apply.Apply(ctx, sim, p2, apply.Options{Principal: "cloudless"})
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	v2 := res2.State

	rp := rollback.Compute(v2, v1)
	if rp.Creates+rp.Replaces != 0 {
		t.Fatalf("renames should revert in place: %s", rp.Summary())
	}
	after, err := rollback.Execute(ctx, sim, rp, apply.Options{Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range v1.Addrs() {
		want := v1.Get(addr)
		got := after.Get(addr)
		if got == nil {
			t.Fatalf("%s missing after rollback", addr)
		}
		rs, _ := schema.LookupResource(want.Type)
		for name, wv := range want.Attrs {
			if a := rs.Attr(name); a == nil || a.Computed {
				continue
			}
			if !got.Attr(name).Equal(wv) {
				t.Errorf("%s.%s = %v, want %v", addr, name, got.Attr(name), wv)
			}
			// The cloud agrees with the state.
			live, err := sim.Get(ctx, want.Type, got.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !live.Attr(name).Equal(wv) {
				t.Errorf("cloud %s.%s = %v, want %v", addr, name, live.Attr(name), wv)
			}
		}
	}
}

// TestValidatedWorkloadsDeployProperty: everything the validator passes
// deploys cleanly; the compile-time check is not vacuous.
func TestValidatedWorkloadsDeployProperty(t *testing.T) {
	workloads := []map[string]string{
		workload.WebTier("a", 2, 5),
		workload.Microservices(3, 2),
		workload.SkewedLatency(6),
		workload.RandomDAG(15, 99),
	}
	for i, files := range workloads {
		ex := expandFiles(t, files)
		if res := validate.Validate(ex, nil); res.HasErrors() {
			t.Fatalf("workload %d: validation errors %+v", i, res.Errors())
		}
		sim := newSim()
		p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
		if err := res.Err(); err != nil {
			t.Fatalf("workload %d failed to deploy after passing validation: %s", i, err)
		}
	}
}

// TestCloudStateConsistencyUnderConcurrentApplies: two stacks with disjoint
// configurations share one cloud; both apply concurrently; both succeed and
// the cloud holds exactly the union.
func TestCloudStateConsistencyUnderConcurrentApplies(t *testing.T) {
	sim := newSim()
	ctx := context.Background()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			files := workload.WebTier(fmt.Sprintf("team%d", i), 2, 4)
			m, diags := config.Load(files)
			if diags.HasErrors() {
				done <- diags
				return
			}
			ex, diags := config.Expand(m, nil, nil)
			if diags.HasErrors() {
				done <- diags
				return
			}
			p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
			if diags.HasErrors() {
				done <- diags
				return
			}
			res := apply.Apply(ctx, sim, p, apply.Options{Principal: fmt.Sprintf("team%d", i)})
			done <- res.Err()
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := sim.Count("aws_virtual_machine"); got != 8 {
		t.Errorf("VMs = %d, want 8", got)
	}
	_ = cloud.DefaultOptions()
}

// TestTimeMachineImmutabilityProperty guards the read contract of the golden
// state (DESIGN S21): snapshots, plans, applies and the version chains share
// one set of records, so no verb may write through one. It drives every verb
// that produces state — deploy, cached edits, a refreshing replan over
// foreign drift, drift adopt and revert, rollback, destroy — capturing the
// time machine's bytes right after each commit; at the end every serial
// still in the window re-reads to the same bytes, and so does every snapshot
// held since.
func TestTimeMachineImmutabilityProperty(t *testing.T) {
	ctx := context.Background()
	sim := newSim()
	files, _ := workload.EditableDAG(20, 11)
	s, err := cloudless.Open(cloudless.Options{Sources: files, Cloud: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type capture struct {
		after string
		snap  *state.State
		bytes string
	}
	var history []capture
	encode := func(st *state.State) string {
		t.Helper()
		raw, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	record := func(after string) {
		t.Helper()
		snap, err := s.DB().SnapshotAt(s.DB().Serial())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(history); n > 0 && history[n-1].snap.Serial == snap.Serial {
			t.Fatalf("%s did not commit (serial %d)", after, snap.Serial)
		}
		history = append(history, capture{after, snap, encode(snap)})
	}
	applyPlan := func(step string, p *cloudless.Plan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: plan: %v", step, err)
		}
		if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
			t.Fatalf("%s: apply: %v", step, err)
		}
		record(step)
	}
	foreignRename := func(addr, name string) {
		t.Helper()
		rs := s.DB().Snapshot().Get(addr)
		if _, err := sim.Update(ctx, cloud.UpdateRequest{Type: rs.Type, ID: rs.ID,
			Attrs: map[string]eval.Value{"name": eval.String(name)}, Principal: "legacy-script"}); err != nil {
			t.Fatal(err)
		}
	}
	reconcile := func(step string, action drift.Action) {
		t.Helper()
		rep, err := s.WatchDrift(ctx)
		if err != nil || len(rep.Items) == 0 {
			t.Fatalf("%s: drift report = %+v, %v", step, rep, err)
		}
		if _, err := s.ReconcileDrift(ctx, rep, action); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		record(step)
	}

	p, err := s.Plan(ctx)
	applyPlan("deploy", p, err)
	deployed := s.DB().Serial()
	for i := 0; i < 4; i++ {
		if err := s.SetVar(fmt.Sprintf("rev_%d", i), "1"); err != nil {
			t.Fatal(err)
		}
		p, err := s.ReplanOffline(ctx)
		applyPlan(fmt.Sprintf("edit %d", i), p, err)
	}
	// The refresh fold reads the foreign rename into the plan's prior.
	foreignRename("aws_network_interface.r0", "rogue-0")
	p, err = s.Replan(ctx)
	applyPlan("refreshing replan", p, err)
	foreignRename("aws_network_interface.r1", "rogue-1")
	reconcile("adopt drift", drift.Adopt)
	foreignRename("aws_network_interface.r2", "rogue-2")
	reconcile("revert drift", drift.Revert)

	rp, err := s.PlanRollback(deployed)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Updates == 0 {
		t.Fatalf("rollback plan reverts nothing in place: %s", rp.Summary())
	}
	if err := s.ExecuteRollback(ctx, rp); err != nil {
		t.Fatal(err)
	}
	record("rollback")
	if _, err := s.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	record("destroy")

	for _, c := range history {
		if got := encode(c.snap); got != c.bytes {
			t.Errorf("the snapshot held since %q (serial %d) changed under its holder", c.after, c.snap.Serial)
		}
		again, err := s.DB().SnapshotAt(c.snap.Serial)
		if errors.Is(err, statedb.ErrNoSuchSerial) {
			continue // trimmed out of the window
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(again); got != c.bytes {
			t.Errorf("serial %d (after %q) re-reads differently than right after its commit", c.snap.Serial, c.after)
		}
	}
}
