// Package guard orchestrates health-gated progressive applies (DESIGN.md
// S24): it composes the primitives in internal/health — readiness probes,
// the per-domain failure fuse, canary wave selection — with the journal-backed
// rollback planner into a single "converge or revert" operation.
//
// guard.Run is what the facade's GuardApplies option and cloudlessctl's
// -guard flag invoke. It lives outside internal/apply because the
// orchestration needs internal/rollback, which itself builds on apply — the
// layering is cloud → apply → rollback → guard.
package guard

import (
	"context"
	"sort"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/events"
	"cloudless/internal/graph"
	"cloudless/internal/health"
	"cloudless/internal/plan"
	"cloudless/internal/rollback"
	"cloudless/internal/state"
	"cloudless/internal/telemetry"
)

// Options configure a guarded apply.
type Options struct {
	// Canary in (0, 1) applies a dependency-closed fraction of the changeset
	// first and releases the rest only if every canary op converged healthy.
	// Outside that range the whole changeset runs as one guarded wave.
	Canary float64
	// Probe bounds the per-resource readiness wait.
	Probe health.ProbeOptions
	// MaxFailures / MaxFailureFraction are the fuse trip thresholds, applied
	// per failure domain (run + each region); zero means the health package
	// defaults.
	MaxFailures        int
	MaxFailureFraction float64
	// DisableRollback leaves failed and never-ready resources in place for
	// inspection instead of auto-reverting the blast radius.
	DisableRollback bool
}

// Run executes the plan under the health guard: every create/update must turn
// ready before its dependents unblock, a shared failure fuse spans all waves,
// and when resources fail their gate (or a fuse trips) the touched blast
// radius is reverted with the journal-backed rollback planner. The returned
// result is the merged view across waves; Reverted reports that the
// auto-rollback completed cleanly.
func Run(ctx context.Context, cl cloud.Interface, p *plan.Plan, applyOpts apply.Options, opts Options) *apply.Result {
	start := time.Now()
	reg := telemetry.FromContext(ctx).Metrics()
	bus := events.FromContext(ctx)

	// One fuse across all waves, seeded with the FULL plan's per-domain op
	// counts: a canary failure and a main-wave failure in the same region
	// accumulate toward the same trip threshold.
	fuse := health.NewFuse(health.FuseOptions{
		MaxFailures:        opts.MaxFailures,
		MaxFailureFraction: opts.MaxFailureFraction,
		OnTrip: func(domain string) {
			reg.Counter("apply.fuse_trips", "domain", domain).Inc()
			bus.Publish(events.Event{Kind: "apply.fuse_trip", Domain: domain})
		},
	})
	apply.SeedFuse(fuse, p)
	applyOpts.Guard = &apply.GuardConfig{Probe: opts.Probe, Fuse: fuse}

	pending := nonNoopAddrs(p)
	wave, rest := health.CanaryWave(p.Graph, pending, opts.Canary)

	var res *apply.Result
	if wave == nil {
		res = apply.Apply(ctx, cl, p, applyOpts)
	} else {
		// Wave 1: the canary slice. Changes and the value store are shared
		// with the full plan, so attribute references resolved during the
		// canary carry into the main wave.
		canaryOpts := applyOpts
		canaryOpts.Wave = "canary"
		canaryRes := apply.Apply(ctx, cl, subPlan(p, wave, p.PriorState), canaryOpts)
		res = canaryRes
		if len(canaryRes.Errors) == 0 && ctx.Err() == nil {
			// Canary converged healthy: release the rest, starting from the
			// state the canary produced.
			mainOpts := applyOpts
			mainOpts.Wave = "main"
			mainRes := apply.Apply(ctx, cl, subPlan(p, rest, canaryRes.State), mainOpts)
			res = mergeResults(canaryRes, mainRes)
		} else {
			// Canary failed: the rest is never admitted.
			res = holdResult(canaryRes, rest)
		}
	}
	res.FuseTripped = fuse.Tripped()

	// Auto-rollback: triggered by never-ready resources or a tripped fuse —
	// evidence something real was built broken. Definitive API rejections
	// alone (nothing created) don't revert healthy siblings.
	if !opts.DisableRollback && (res.GateFailures > 0 || len(res.FuseTripped) > 0) {
		autoRollback(ctx, cl, p, applyOpts, res)
	}
	res.Elapsed = time.Since(start)
	return res
}

// nonNoopAddrs lists the plan's actionable addresses, sorted.
func nonNoopAddrs(p *plan.Plan) []string {
	var out []string
	for addr, ch := range p.Changes {
		if ch.Action != plan.ActionNoop {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// subPlan carves a wave out of the full plan: the wave's changes, built
// into a plan with the wave's own prior state, sharing the parent's value
// store so cross-wave references resolve.
func subPlan(p *plan.Plan, addrs []string, prior *state.State) *plan.Plan {
	changes := make([]*plan.Change, 0, len(addrs))
	for _, a := range addrs {
		if ch := p.Changes[a]; ch != nil {
			changes = append(changes, ch)
		}
	}
	sp, _ := plan.New(prior, changes) // part of an acyclic plan is acyclic
	sp.Values, sp.BaseSerial = p.Values, p.BaseSerial
	return sp
}

// mergeResults folds the canary and main-wave results into one. The main
// wave applied on top of the canary's state, so its state and outputs are
// cumulative already.
func mergeResults(canary, main *apply.Result) *apply.Result {
	out := &apply.Result{
		State:        main.State,
		Applied:      canary.Applied + main.Applied,
		Retries:      canary.Retries + main.Retries,
		Outputs:      main.Outputs,
		Errors:       map[string]error{},
		HealthWait:   canary.HealthWait + main.HealthWait,
		GateFailures: canary.GateFailures + main.GateFailures,
	}
	rep := &graph.WalkReport{Status: map[string]graph.NodeStatus{}, Errors: map[string]error{}}
	for _, r := range []*apply.Result{canary, main} {
		for a, err := range r.Errors {
			out.Errors[a] = err
		}
		if r.Report != nil {
			for a, s := range r.Report.Status {
				rep.Status[a] = s
			}
			for a, err := range r.Report.Errors {
				rep.Errors[a] = err
			}
		}
	}
	out.Report = rep
	return out
}

// holdResult extends a failed canary's result with the unreleased rest of
// the changeset, marked skipped: those ops were never admitted.
func holdResult(canary *apply.Result, rest []string) *apply.Result {
	if canary.Report == nil {
		canary.Report = &graph.WalkReport{Status: map[string]graph.NodeStatus{}, Errors: map[string]error{}}
	}
	for _, a := range rest {
		if _, seen := canary.Report.Status[a]; !seen {
			canary.Report.Status[a] = graph.StatusSkipped
		}
	}
	return canary
}

// autoRollback reverts the blast radius of a failed guarded apply: the
// connected slice of this run's executed ops reachable from the failures,
// over both dependency directions — a never-ready vm takes its fresh subnet
// and vpc down with it, while a disconnected healthy subgraph (a sibling
// region, an unrelated stack) is left exactly as applied. The rollback runs
// under the same journal as the apply, so a crash mid-revert is recovered by
// the ordinary journal machinery.
func autoRollback(ctx context.Context, cl cloud.Interface, p *plan.Plan,
	applyOpts apply.Options, res *apply.Result) {

	scope := blastRadius(p, res)
	if len(scope) == 0 {
		return
	}
	telemetry.FromContext(ctx).Metrics().Counter("apply.auto_rollbacks").Inc()
	bus := events.FromContext(ctx)
	rbStart := time.Now()
	bus.Publish(events.Event{Kind: "apply.rollback_start", N: int64(len(scope))})

	// Scoped views: what the run left behind vs what was there before, for
	// the blast radius only. Compute reverts updates in place and deletes
	// fresh creates; everything outside the scope is invisible to it.
	cur, tgt := state.New(), state.New()
	var rolled []string
	for a := range scope {
		if rs := res.State.Get(a); rs != nil {
			cur.Set(rs)
		}
		if rs := p.PriorState.Get(a); rs != nil {
			tgt.Set(rs)
		}
		rolled = append(rolled, a)
	}
	sort.Strings(rolled)

	// The revert is a plan like any other: concurrent, in dependency order,
	// with per-op events under the "rollback" wave, and not health-gated.
	rbOpts := applyOpts
	rbOpts.Guard, rbOpts.Wave = nil, "rollback"
	after, err := rollback.Execute(ctx, cl, rollback.Compute(cur, tgt), rbOpts)
	// Merge the (possibly partial) reverted slice back into the run's state.
	// An address the rollback could not restore keeps its prior record when
	// one existed: the resource was managed before this run, and forgetting
	// it would silently shrink the estate — the record (even with a dead
	// cloud ID) keeps the loss visible as deleted-drift for the next
	// converge. Only fresh creates, with no prior record, are removed.
	for a := range scope {
		if rs := after.Get(a); rs != nil {
			res.State.Set(rs)
		} else if prior := p.PriorState.Get(a); prior != nil {
			res.State.Set(prior)
		} else {
			res.State.Remove(a)
		}
	}
	res.RolledBack = rolled
	res.Reverted = err == nil
	fin := events.Event{Kind: "apply.rollback_finish", N: int64(len(rolled)),
		Ms: float64(time.Since(rbStart)) / float64(time.Millisecond)}
	if err != nil {
		res.Errors["<rollback>"] = err
		fin.Err = err.Error()
	}
	bus.Publish(fin)
}

// blastRadius computes the addresses the auto-rollback must revert: the
// fixpoint closure of the failed addresses over transitive dependents AND
// dependencies, intersected with the ops this run actually executed. The
// two-directional closure walks the failure's whole connected component of
// touched work; the intersection keeps pre-existing (noop) resources and
// never-started siblings out of the revert.
func blastRadius(p *plan.Plan, res *apply.Result) map[string]struct{} {
	touched := map[string]struct{}{}
	if res.Report != nil {
		for a, s := range res.Report.Status {
			if s == graph.StatusDone || s == graph.StatusFailed {
				if ch := p.Changes[a]; ch != nil && ch.Action != plan.ActionNoop {
					touched[a] = struct{}{}
				}
			}
		}
	}
	scope := map[string]struct{}{}
	var frontier []string
	for a := range res.Errors {
		if _, ok := touched[a]; ok {
			scope[a] = struct{}{}
			frontier = append(frontier, a)
		}
	}
	for len(frontier) > 0 {
		var next []string
		reach := p.Graph.TransitiveDependents(frontier...)
		for d := range p.Graph.TransitiveDependencies(frontier...) {
			reach[d] = struct{}{}
		}
		for a := range reach {
			if _, executed := touched[a]; !executed {
				continue
			}
			if _, seen := scope[a]; seen {
				continue
			}
			scope[a] = struct{}{}
			next = append(next, a)
		}
		frontier = next
	}
	return scope
}
