package main

import (
	"context"
	"fmt"
	"time"

	"cloudless/internal/provider"
)

// runPlanCold measures what `cloudlessctl plan` pays on a converged graph:
// cloudless.Open (parse, expand, WAL reopen), Stack.Plan (refresh, full
// evaluation, diff) and Close, from one client in a closed loop.
func runPlanCold(ctx context.Context, cfg runConfig, r *run) error {
	env, setupS, err := timedSetup(cfg.setupRepeats(), func() (*dagEnv, error) {
		return newDagEnv(cfg, cfg.sizes.planDecls, func(e *dagEnv) error {
			if err := e.reopen(false); err != nil {
				return err
			}
			if err := deploy(ctx, e.st); err != nil {
				return err
			}
			if err := e.shut(); err != nil {
				return err
			}
			// One untimed iteration, so the window starts on a warm page cache.
			_, err := planColdOnce(ctx, e, false, nil)
			return err
		})
	}, (*dagEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", setupS)

	var digest uint64
	var ref refPass
	var traced samples
	var parts []planColdTimes
	loop := func(isTraced bool, d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
			t, err := planColdOnce(ctx, env, isTraced, &digest)
			r.done(err)
			switch {
			case err != nil:
			case isTraced:
				traced.add(t.total())
				parts = append(parts, t)
			default:
				ref.lat.add(t.total())
			}
		}
	}
	simBefore := env.host.sim.Metrics()
	err = cfg.measure(&ref, func(bool) error { return nil }, loop)
	if err != nil {
		return err
	}
	if len(ref.lat) == 0 {
		return fmt.Errorf("no iteration completed")
	}
	r.latency(ref)
	r.set("peak_rss_mb", selfRSSMiB())
	if !cfg.traced {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced iteration completed")
	}

	var open, closeT, busy samples
	var prov provider.Stats
	var calls int64
	var rttsUs []float64
	for _, t := range parts {
		open.add(t.open)
		closeT.add(t.close)
		busy.add(t.cloud.busy)
		calls += t.cloud.calls
		rttsUs = append(rttsUs, t.cloud.rttsUs...)
		addStats(&prov, provider.Stats{}, t.provider)
	}
	providerPerOp(r, prov, len(parts))
	r.set("workspace.open_ms", median(open))
	r.set("workspace.close_ms", median(closeT))
	r.set("cloud.busy_ms", median(busy))
	r.set("cloud.calls_per_plan", float64(calls)/float64(len(parts)))
	r.set("cloud.rtt_us_p50", median(rttsUs))
	r.set("cloud.batch_items_per_call", batchItemsPerCall(simBefore, env.host.sim.Metrics()))
	r.set("trace_overhead_frac", median(traced)/median(ref.lat)-1)

	// Direct calls into single layers, on the workload's own inputs.
	ex, err := measureConfig(r, env.sources)
	if err != nil {
		return err
	}
	if err := env.reopen(false); err != nil {
		return err
	}
	snapshot := env.st.DB().Snapshot()
	if err := env.shut(); err != nil {
		return err
	}
	if err := measureStatedb(ctx, r, cfg, env.stateDir(), snapshot); err != nil {
		return err
	}
	fullMs, p, err := computeFull(ctx, ex, snapshot)
	if err != nil {
		return err
	}
	r.set("plan.compute_full_ms", fullMs)
	r.set("plan.evaluated_per_plan", float64(p.EvaluatedInstances))
	if err := measurePlanScale(ctx, r, cfg, cfg.sizes.planDecls, fullMs); err != nil {
		return err
	}
	if err := measureProviderGet(ctx, r); err != nil {
		return err
	}
	covered := r.metrics["config.load_ms"] + r.metrics["config.expand_ms"] + r.metrics["statedb.open_ms"] +
		fullMs + median(busy) + median(closeT)
	r.set("unattributed_frac", 1-covered/median(traced))
	return nil
}

// planColdTimes is one iteration, by call; the last two fields are filled in
// the traced pass only.
type planColdTimes struct {
	open, plan, close time.Duration
	cloud             cloudWork
	provider          provider.Stats
}

func (t planColdTimes) total() time.Duration { return t.open + t.plan + t.close }

// planColdOnce runs and checks one iteration: the plan of a converged stack
// is all no-ops, and the same plan every time (digest, when given, carries
// the first iteration's).
func planColdOnce(ctx context.Context, e *dagEnv, traced bool, digest *uint64) (planColdTimes, error) {
	var t planColdTimes
	var stop func() cloudWork
	if traced {
		stop = e.host.tap()
	}
	t0 := time.Now()
	st, err := e.host.open(e.dir, e.sources, nil, traced)
	if err != nil {
		return t, fmt.Errorf("open: %w", err)
	}
	t1 := time.Now()
	p, err := st.Plan(ctx)
	t2 := time.Now()
	if traced {
		t.provider = st.Provider().Stats()
	}
	cerr := st.Close()
	t.open, t.plan, t.close = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	if traced {
		t.cloud = stop()
	}
	if err != nil {
		return t, fmt.Errorf("plan: %w", err)
	}
	if cerr != nil {
		return t, fmt.Errorf("close: %w", cerr)
	}
	if want := len(p.Changes); p.PendingCount() != 0 || p.Noops != want || want == 0 {
		return t, fmt.Errorf("plan of a converged stack: %s", p.Summary())
	}
	if digest != nil {
		d := planDigest(p)
		if *digest == 0 {
			*digest = d
		} else if *digest != d {
			return t, fmt.Errorf("plan digest %x differs from the first iteration's %x", d, *digest)
		}
	}
	return t, nil
}
