package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/provider"
)

// The four phases of one converge_cycle cycle, in order, and the metric each
// phase's wall time is reported as.
var cyclePhases = []struct{ name, metric string }{
	{"deploy", "deploy_ms_p50"},
	{"scan", "scan_ms_p50"},
	{"repair", "drift_repair_ms_p50"},
	{"destroy", "destroy_ms_p50"},
}

// runConvergeCycle cycles one stack through the reconciler's whole
// repertoire: deploy from empty, full drift scan (must find nothing), seeded
// foreign updates, activity-log detection plus revert, destroy. One client,
// closed loop; a cycle is the unit of work.
func runConvergeCycle(ctx context.Context, cfg runConfig, r *run) error {
	cycle := 0
	env, setupS, err := timedSetup(cfg.setupRepeats(), func() (*dagEnv, error) {
		return newDagEnv(cfg, cfg.sizes.cycleDecls, func(e *dagEnv) error {
			if err := e.reopen(false); err != nil {
				return err
			}
			// The first WatchDrift only plants the cursor at the log's tail.
			if _, err := e.st.WatchDrift(ctx); err != nil {
				return err
			}
			// One untimed cycle: replan cache, connections and WAL are warm.
			cycle++
			_, err := cycleOnce(ctx, cfg, e, cycle, false)
			return err
		})
	}, (*dagEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", setupS)

	var ref refPass
	var traced samples
	var parts []cycleTimes
	loop := func(isTraced bool, d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
			cycle++
			t, err := cycleOnce(ctx, cfg, env, cycle, isTraced)
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
	var prov provider.Stats
	simBefore := env.host.sim.Metrics()
	err = cfg.measure(&ref, func(toTraced bool) error {
		// Every pass of a trace run starts from a freshly opened stack, so
		// reference and traced passes differ in the decorators alone.
		// Between cycles the estate is empty: a reopened stack only has to
		// plant its drift cursor and warm up with one untimed cycle, as
		// set-up does.
		if err := env.reopen(toTraced); err != nil {
			return err
		}
		if _, err := env.st.WatchDrift(ctx); err != nil {
			return err
		}
		cycle++
		_, err := cycleOnce(ctx, cfg, env, cycle, false)
		return err
	}, func(isTraced bool, d time.Duration) {
		before := env.st.Provider().Stats() // the warm-up cycle's share
		loop(isTraced, d)
		if isTraced {
			addStats(&prov, before, env.st.Provider().Stats())
		}
	})
	if err != nil {
		return err
	}
	if len(ref.lat) == 0 {
		return fmt.Errorf("no cycle completed")
	}
	r.latency(ref)
	r.set("peak_rss_mb", selfRSSMiB())
	if !cfg.traced {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced cycle completed")
	}
	providerPerOp(r, prov, len(parts))
	r.set("cloud.batch_items_per_call", batchItemsPerCall(simBefore, env.host.sim.Metrics()))

	phaseMs := map[string]samples{}
	busyMs := map[string]samples{}
	calls := map[string]int64{}
	var replan, watch, reconcile, busyAll, rtts samples
	var ops float64
	for _, t := range parts {
		var busy time.Duration
		for i, ph := range cyclePhases {
			phaseMs[ph.name] = append(phaseMs[ph.name], ms(t.phase[i]))
			busyMs[ph.name] = append(busyMs[ph.name], ms(t.cloud[i].busy))
			calls[ph.name] += t.cloud[i].calls
			busy += t.cloud[i].busy
			rtts = append(rtts, t.cloud[i].rttsUs...)
		}
		busyAll.add(busy)
		replan.add(t.replan)
		watch.add(t.watch)
		reconcile.add(t.reconcile)
		ops = float64(t.resources)
	}
	n := float64(len(parts))
	var phaseSum float64
	for _, ph := range cyclePhases {
		r.set(ph.metric, median(phaseMs[ph.name]))
		r.set("cloud.busy_ms."+ph.name, median(busyMs[ph.name]))
		r.set("cloud.calls_per_"+ph.name, float64(calls[ph.name])/n)
		phaseSum += median(phaseMs[ph.name])
	}
	r.set("cloud.busy_ms", median(busyAll))
	r.set("cloud.rtt_us_p50", median(rtts))
	r.set("plan.replan_ms", median(replan))
	r.set("drift.watch_ms", median(watch))
	r.set("drift.reconcile_ms", median(reconcile))
	// What deploy and destroy spend per resource outside the cloud boundary
	// (deploy's share excludes its replan, which plan.replan_ms carries).
	r.set("apply.noncloud_ms_per_op.deploy",
		(median(phaseMs["deploy"])-median(replan)-median(busyMs["deploy"]))/ops)
	r.set("apply.noncloud_ms_per_op.destroy",
		(median(phaseMs["destroy"])-median(busyMs["destroy"]))/ops)
	r.set("trace_overhead_frac", median(traced)/median(ref.lat)-1)
	r.set("unattributed_frac", 1-phaseSum/median(traced))
	return measureProviderGet(ctx, r)
}

// cycleTimes is one cycle: wall time per phase, and in the traced pass what
// each phase did at the cloud boundary and the calls inside the phases.
type cycleTimes struct {
	phase                    [4]time.Duration
	cloud                    [4]cloudWork
	replan, watch, reconcile time.Duration
	resources                int
}

func (t cycleTimes) total() time.Duration {
	return t.phase[0] + t.phase[1] + t.phase[2] + t.phase[3]
}

// cycleOnce runs and checks one cycle. The foreign updates are injected
// straight into the sim between scan and repair and are not timed.
func cycleOnce(ctx context.Context, cfg runConfig, e *dagEnv, cycle int, traced bool) (cycleTimes, error) {
	var t cycleTimes
	phase := func(i int, fn func() error) error {
		var stop func() cloudWork
		if traced {
			stop = e.host.tap()
		}
		t0 := time.Now()
		err := fn()
		t.phase[i] = time.Since(t0)
		if traced {
			t.cloud[i] = stop()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", cyclePhases[i].name, err)
		}
		return nil
	}

	if err := phase(0, func() error {
		t0 := time.Now()
		p, err := e.st.Replan(ctx)
		if err != nil {
			return fmt.Errorf("replan: %w", err)
		}
		t.replan = time.Since(t0)
		res, _, err := e.st.Apply(ctx, p, cloudless.ApplyOptions{})
		if err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		t.resources = len(p.Changes)
		if p.Creates != t.resources || res.Applied != t.resources {
			return fmt.Errorf("planned %s, applied %d", p.Summary(), res.Applied)
		}
		return nil
	}); err != nil {
		return t, err
	}
	if got := e.host.sim.TotalResources(); got != t.resources {
		return t, fmt.Errorf("deploy: sim holds %d resources, want %d", got, t.resources)
	}

	if err := phase(1, func() error {
		rep, err := e.st.ScanDrift(ctx)
		if err != nil {
			return err
		}
		if len(rep.Items) != 0 {
			return fmt.Errorf("found %d drift items on a fresh deploy", len(rep.Items))
		}
		return nil
	}); err != nil {
		return t, err
	}

	snapshot := e.st.DB().Snapshot()
	var want []string
	for _, vm := range driftSchedule(e.vms, cfg.sizes.driftPerCycle, cfg.seed, cycle) {
		rs := snapshot.Get(vmAddr(vm))
		if rs == nil {
			return t, fmt.Errorf("%s missing from the golden state", vmAddr(vm))
		}
		if _, err := e.host.sim.Update(ctx, cloud.UpdateRequest{
			Type: rs.Type, ID: rs.ID, Principal: "legacy-script",
			Attrs: map[string]eval.Value{"name": eval.String(vmName(vm, "drifted"))},
		}); err != nil {
			return t, fmt.Errorf("inject drift on %s: %w", rs.Addr, err)
		}
		want = append(want, rs.Addr)
	}
	sort.Strings(want)

	if err := phase(2, func() error {
		t0 := time.Now()
		rep, err := e.st.WatchDrift(ctx)
		if err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		t.watch = time.Since(t0)
		t1 := time.Now()
		res, err := e.st.ReconcileDrift(ctx, rep, drift.Revert)
		if err != nil {
			return fmt.Errorf("reconcile: %w", err)
		}
		t.reconcile = time.Since(t1)
		got := append([]string(nil), res.Reverted...)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) || len(res.Errors) != 0 {
			return fmt.Errorf("reverted %v (errors %v), want exactly %v", got, res.Errors, want)
		}
		return nil
	}); err != nil {
		return t, err
	}
	for _, addr := range want[:1] { // spot-check the revert against the cloud itself
		rs := snapshot.Get(addr)
		res, err := e.host.sim.Get(ctx, rs.Type, rs.ID)
		if err != nil {
			return t, fmt.Errorf("sim get %s: %w", rs.ID, err)
		}
		if got, want := res.Attr("name").AsString(), rs.Attrs["name"].AsString(); got != want {
			return t, fmt.Errorf("repair: sim holds name %q for %s, want %q", got, addr, want)
		}
	}

	if err := phase(3, func() error {
		res, err := e.st.Destroy(ctx)
		if err != nil {
			return err
		}
		if res.Applied != t.resources {
			return fmt.Errorf("deleted %d of %d resources", res.Applied, t.resources)
		}
		return nil
	}); err != nil {
		return t, err
	}
	if sim, st := e.host.sim.TotalResources(), e.st.DB().Snapshot().Len(); sim != 0 || st != 0 {
		return t, fmt.Errorf("destroy: sim holds %d resources and the golden state %d, want none", sim, st)
	}
	return t, nil
}
