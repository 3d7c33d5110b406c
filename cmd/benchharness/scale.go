package main

// SC: the scale-out planning core (§3.3 at 100k-resource ambitions). Two
// claims, measured on randomized DAG topologies:
//
//  1. Incremental replan: after a one-resource edit, a cached replan
//     re-evaluates only the dirty subtree — orders of magnitude fewer
//     instance evaluations than a full replan, byte-identical output.
//  2. Bulk cloud ops: a drift poll verifies hundreds of foreign events in
//     a handful of batched reads.
//
// The -json-sc output (BENCH_scale.json) is the recorded baseline; a later
// run with -baseline-sc fails (exit 1) if the watched 2k-graph incremental
// evaluation count regressed more than 5% — the deterministic proxy for
// "the planner got slower".

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/state"
	"cloudless/internal/workload"
)

var (
	jsonOutSC     string
	baselineSC    string
	scGraphSizes  = []int{333, 1333, 6666} // decl counts -> ~500 / ~2k / ~10k instances
	scWatchedSize = 1333                   // the 2k-instance graph the guard watches
)

type scSizeResult struct {
	Instances     int     `json:"instances"`
	FullPlanMs    float64 `json:"full_plan_ms"`
	FullEvaluated int     `json:"full_evaluated"`
	IncrPlanMs    float64 `json:"incr_plan_ms"`
	IncrEvaluated int     `json:"incr_evaluated"`
	ReplayPlanMs  float64 `json:"replay_plan_ms"`
	ReplayEvals   int     `json:"replay_evaluated"`
	EvalReduction float64 `json:"eval_reduction_x"`
	PlanSpeedup   float64 `json:"plan_speedup_x"`
	ByteIdentical bool    `json:"byte_identical"`
}

type scResult struct {
	Experiment string         `json:"experiment"`
	Sizes      []scSizeResult `json:"sizes"`
	// Watched guard metric: incremental evaluations after a one-resource
	// edit on the 2k-instance graph. Deterministic; >5% regression fails.
	WatchedIncrEvaluated int `json:"watched_incr_evaluated"`
	// Cloud calls on the 2k graph: the apply's, and the drift
	// verification's batched reads.
	ApplyCallsUnbatched    int64   `json:"apply_calls_unbatched"`
	DriftEventsVerified    int     `json:"drift_events_verified"`
	DriftVerifyCalls       int     `json:"drift_verify_calls"`
	DriftVerifyReductionX  float64 `json:"drift_verify_reduction_x"`
	BaselineIncrEvaluated  int     `json:"baseline_incr_evaluated,omitempty"`
	BaselineRegressionFrac float64 `json:"baseline_regression_frac,omitempty"`
}

// planDigest is a cheap canonical fingerprint of everything a plan consumer
// observes; equal digests mean byte-identical plans.
func planDigest(p *plan.Plan) uint64 {
	h := fnv.New64a()
	addrs := make([]string, 0, len(p.Changes))
	for a := range p.Changes {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	w := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	attrs := func(m map[string]eval.Value) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			w(n)
			w(m[n].String())
		}
	}
	for _, a := range addrs {
		ch := p.Changes[a]
		w(a)
		w(ch.Action.String())
		w(ch.Type)
		w(ch.Region)
		w(ch.ID)
		attrs(ch.Before)
		attrs(ch.After)
		for _, c := range ch.ChangedAttrs {
			w(c)
		}
		for _, d := range ch.Deps {
			w(d)
		}
	}
	for _, n := range p.Graph.Nodes() {
		deps := p.Graph.Dependencies(n)
		sort.Strings(deps)
		w(n)
		for _, d := range deps {
			w(d)
		}
	}
	w(p.Summary())
	return h.Sum64()
}

func medianMs(samples []time.Duration) float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[len(samples)/2].Microseconds()) / 1000
}

func sc() {
	ctx := context.Background()
	out := scResult{Experiment: "SC"}
	rows := [][]string{}

	for _, decls := range scGraphSizes {
		files := workload.RandomDAG(decls, 7)
		ex := mustExpand(files)

		// Converge a simulated fleet so the replan measurements run against
		// realistic prior state.
		sim := fastSim()
		p0 := mustPlan(ex, state.New(), plan.Options{})
		res := apply.Apply(ctx, sim, p0, apply.Options{Principal: "cloudless", Concurrency: 256})
		if err := res.Err(); err != nil {
			panic(err)
		}
		prior := res.State

		// Warm the cache, then edit one VM declaration.
		cache := plan.NewReplanCache()
		mustPlan(ex, prior, plan.Options{Cache: cache})
		edit := decls % 3
		files["rand.ccl"] = replaceOnceStr(files["rand.ccl"],
			fmt.Sprintf("name    = %q", fmt.Sprintf("r-vm-%d", edit)),
			fmt.Sprintf("name    = %q", fmt.Sprintf("r-vm-%d-edited", edit)))
		ex2 := mustExpand(files)

		const reps = 3
		var fullT, replayT []time.Duration
		var full, incr, replay *plan.Plan
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			full = mustPlan(ex2, prior, plan.Options{})
			fullT = append(fullT, time.Since(t0))
		}
		// First cached plan after the edit: config invalidation, dirty
		// subtree re-evaluated. Subsequent ones: clean replay, zero
		// evaluation — measured separately so neither hides the other.
		t0 := time.Now()
		incr = mustPlan(ex2, prior, plan.Options{Cache: cache})
		incrT := time.Since(t0)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			replay = mustPlan(ex2, prior, plan.Options{Cache: cache})
			replayT = append(replayT, time.Since(t0))
		}
		identical := planDigest(full) == planDigest(incr) && planDigest(full) == planDigest(replay)
		if !identical {
			panic(fmt.Sprintf("SC: incremental plan diverged from full plan at %d decls", decls))
		}

		r := scSizeResult{
			Instances:     len(ex.Instances),
			FullPlanMs:    medianMs(fullT),
			FullEvaluated: full.EvaluatedInstances,
			IncrPlanMs:    float64(incrT.Microseconds()) / 1000,
			IncrEvaluated: incr.EvaluatedInstances,
			ReplayPlanMs:  medianMs(replayT),
			ReplayEvals:   replay.EvaluatedInstances,
			ByteIdentical: identical,
		}
		if r.IncrEvaluated > 0 {
			r.EvalReduction = float64(r.FullEvaluated) / float64(r.IncrEvaluated)
		}
		if r.IncrPlanMs > 0 {
			r.PlanSpeedup = r.FullPlanMs / r.IncrPlanMs
		}

		if decls == scWatchedSize {
			out.WatchedIncrEvaluated = r.IncrEvaluated
		}
		out.Sizes = append(out.Sizes, r)
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Instances),
			fmt.Sprintf("%.1f", r.FullPlanMs), fmt.Sprintf("%d", r.FullEvaluated),
			fmt.Sprintf("%.1f", r.IncrPlanMs), fmt.Sprintf("%d", r.IncrEvaluated),
			fmt.Sprintf("%.1f", r.ReplayPlanMs),
			fmt.Sprintf("%.0fx", r.EvalReduction), fmt.Sprintf("%.1fx", r.PlanSpeedup),
			fmt.Sprintf("%v", r.ByteIdentical),
		})
	}
	table("instances\tfull ms\tfull evals\tincr ms\tincr evals\treplay ms\teval redux\tspeedup\tidentical", rows)

	// Bulk ops on the watched graph: the apply's admitted calls, and batched
	// drift verification.
	files := workload.RandomDAG(scWatchedSize, 7)
	ex := mustExpand(files)
	p := mustPlan(ex, state.New(), plan.Options{})
	sim := fastSim()
	res := apply.Apply(ctx, sim, p, apply.Options{Principal: "cloudless", Concurrency: 256})
	if err := res.Err(); err != nil {
		panic(err)
	}
	out.ApplyCallsUnbatched = sim.Metrics().Calls

	// Drift: a foreign principal touches 200 VMs; the watcher verifies all
	// of them in ceil(200/MaxBatchItems) batched reads.
	w := drift.NewWatcher(sim, "cloudless", sim.LastSeq())
	touched := 0
	for _, addr := range res.State.Addrs() {
		rs := res.State.Get(addr)
		if rs.Type != "aws_virtual_machine" || touched >= 200 {
			continue
		}
		if _, err := sim.Update(ctx, cloud.UpdateRequest{
			Type: rs.Type, ID: rs.ID,
			Attrs:     map[string]eval.Value{"name": eval.String(rs.ID + "-drifted")},
			Principal: "legacy-script",
		}); err != nil {
			panic(err)
		}
		touched++
	}
	rep, err := w.Poll(ctx, res.State)
	if err != nil {
		panic(err)
	}
	out.DriftEventsVerified = touched
	out.DriftVerifyCalls = rep.APICalls
	if rep.APICalls > 0 {
		out.DriftVerifyReductionX = float64(touched) / float64(rep.APICalls)
	}
	table("bulk ops\tunbatched\tbatched\treduction", [][]string{
		{"drift verify calls", fmt.Sprintf("%d", out.DriftEventsVerified),
			fmt.Sprintf("%d", out.DriftVerifyCalls), fmt.Sprintf("%.0fx", out.DriftVerifyReductionX)},
	})

	// Regression guard against a recorded baseline.
	if baselineSC != "" {
		raw, err := os.ReadFile(baselineSC)
		if err != nil {
			fmt.Fprintf(os.Stderr, "SC baseline: %s\n", err)
			os.Exit(1)
		}
		var base scResult
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "SC baseline: %s\n", err)
			os.Exit(1)
		}
		if base.WatchedIncrEvaluated > 0 {
			out.BaselineIncrEvaluated = base.WatchedIncrEvaluated
			out.BaselineRegressionFrac = float64(out.WatchedIncrEvaluated-base.WatchedIncrEvaluated) /
				float64(base.WatchedIncrEvaluated)
			fmt.Printf("guard: watched incr evaluations %d vs baseline %d (%+.1f%%)\n",
				out.WatchedIncrEvaluated, base.WatchedIncrEvaluated, 100*out.BaselineRegressionFrac)
			if out.BaselineRegressionFrac > 0.05 {
				fmt.Fprintf(os.Stderr, "SC: incremental replan regressed >5%% vs baseline\n")
				os.Exit(1)
			}
		}
	}

	if jsonOutSC != "" {
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutSC, append(raw, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutSC)
	}
}

// replaceOnceStr swaps the first occurrence of old for new.
func replaceOnceStr(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}
