package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"cloudless"
	"cloudless/internal/plan"
)

// runEditLoop measures the edit loop on a large graph held open and warm:
// change one VM declaration (SetVar), ReplanOffline, and Apply the
// one-update plan durably, from one client in a closed loop.
func runEditLoop(ctx context.Context, cfg runConfig, r *run) error {
	env, setupS, err := timedSetup(cfg.setupRepeats(), func() (*dagEnv, error) {
		return newDagEnv(cfg, cfg.sizes.planDecls, func(e *dagEnv) error {
			if err := e.reopen(false); err != nil {
				return err
			}
			if err := deploy(ctx, e.st); err != nil {
				return err
			}
			return warmReplan(ctx, e.st)
		})
	}, (*dagEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", setupS)

	sched := editSchedule(env.vms, cfg.seed)
	edits := 0
	var lastVM int
	var lastRev string
	var ref refPass
	var traced samples
	var parts []editTimes
	loop := func(isTraced bool, d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
			vm, rev := sched[edits%len(sched)], strconv.Itoa(edits+1)
			edits++
			t, err := editOnce(ctx, env, vm, rev, isTraced)
			r.done(err)
			if err != nil {
				continue
			}
			lastVM, lastRev = vm, rev
			if isTraced {
				traced.add(t.total())
				parts = append(parts, t)
			} else {
				ref.lat.add(t.total())
			}
		}
	}
	// An edit gets slower the longer its stack has been open (every commit
	// adds a version to the time machine), so each pass of a trace run
	// starts from a freshly opened stack, the reference passes too.
	err = cfg.measure(&ref, func(toTraced bool) error {
		if err := env.reopen(toTraced); err != nil {
			return err
		}
		return warmReplan(ctx, env.st)
	}, loop)
	if err != nil {
		return err
	}
	if len(ref.lat) == 0 {
		return fmt.Errorf("no edit completed")
	}
	r.latency(ref)
	r.set("peak_rss_mb", selfRSSMiB())

	// The edits must have landed: a refreshing plan finds nothing to do and
	// the cloud holds the last name written.
	r.done(checkEdited(ctx, env, lastVM, lastRev))
	if !cfg.traced {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced edit completed")
	}

	var setVar, replan, apply, busy, rtts samples
	var calls, evaluated []float64 // per edit; their medians repeat exactly
	for _, t := range parts {
		setVar.add(t.setVar)
		replan.add(t.replan)
		apply.add(t.apply)
		busy.add(t.cloud.busy)
		calls = append(calls, float64(t.cloud.calls))
		evaluated = append(evaluated, float64(t.evaluated))
		rtts = append(rtts, t.cloud.rttsUs...)
	}
	r.set("config.setvar_ms", median(setVar))
	r.set("plan.replan_ms", median(replan))
	r.set("plan.replan_evaluated", median(evaluated))
	r.set("apply.edit_ms", median(apply))
	r.set("cloud.busy_ms", median(busy))
	r.set("cloud.calls_per_edit", median(calls))
	r.set("cloud.rtt_us_p50", median(rtts))
	r.set("trace_overhead_frac", median(traced)/median(ref.lat)-1)
	r.set("unattributed_frac", 1-(median(setVar)+median(replan)+median(apply))/median(traced))

	// A replan with nothing dirty: pure replay.
	cleanMs, err := timeN(directReps, func() error {
		p, err := env.st.ReplanOffline(ctx)
		if err == nil && p.PendingCount() != 0 {
			err = fmt.Errorf("clean replan: %s", p.Summary())
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("plan.replay_clean_ms", cleanMs)

	snapshot := env.st.DB().Snapshot()
	if err := env.shut(); err != nil {
		return err
	}
	return measureStatedb(ctx, r, cfg, env.stateDir(), snapshot)
}

// warmReplan fills the replan cache against the converged state.
func warmReplan(ctx context.Context, st *cloudless.Stack) error {
	p, err := st.ReplanOffline(ctx)
	if err != nil {
		return fmt.Errorf("warm replan: %w", err)
	}
	if p.PendingCount() != 0 {
		return fmt.Errorf("warm replan of a converged stack: %s", p.Summary())
	}
	return nil
}

// editTimes is one edit, by call; cloud and evaluated are filled in the
// traced pass only.
type editTimes struct {
	setVar, replan, apply time.Duration
	cloud                 cloudWork
	evaluated             int
}

func (t editTimes) total() time.Duration { return t.setVar + t.replan + t.apply }

// editOnce makes and checks one edit: it plans exactly one update and
// applies exactly one operation.
func editOnce(ctx context.Context, e *dagEnv, vm int, rev string, traced bool) (editTimes, error) {
	var t editTimes
	var stop func() cloudWork
	if traced {
		stop = e.host.tap()
	}
	t0 := time.Now()
	name := "rev_" + strconv.Itoa(vm)
	if err := e.st.SetVar(name, rev); err != nil {
		return t, fmt.Errorf("setvar: %w", err)
	}
	e.vars[name] = rev
	t1 := time.Now()
	p, err := e.st.ReplanOffline(ctx)
	if err != nil {
		return t, fmt.Errorf("replan: %w", err)
	}
	t2 := time.Now()
	res, _, err := e.st.Apply(ctx, p, cloudless.ApplyOptions{})
	t.setVar, t.replan, t.apply = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	if traced {
		t.cloud = stop()
		t.evaluated = e.st.ReplanStats().Evaluated
	}
	if err != nil {
		return t, fmt.Errorf("apply: %w", err)
	}
	if p.Updates != 1 || p.PendingCount() != 1 {
		return t, fmt.Errorf("edit of %s planned %s", vmAddr(vm), p.Summary())
	}
	if ch := p.Changes[vmAddr(vm)]; ch == nil || ch.Action != plan.ActionUpdate {
		return t, fmt.Errorf("edit of %s did not plan its update", vmAddr(vm))
	}
	if res.Applied != 1 {
		return t, fmt.Errorf("edit of %s applied %d ops", vmAddr(vm), res.Applied)
	}
	return t, nil
}

// checkEdited verifies the loop's end state against the cloud itself.
func checkEdited(ctx context.Context, e *dagEnv, vm int, rev string) error {
	p, err := e.st.Plan(ctx)
	if err != nil {
		return fmt.Errorf("final plan: %w", err)
	}
	if p.PendingCount() != 0 {
		return fmt.Errorf("final plan after the edits: %s", p.Summary())
	}
	rs := e.st.DB().Snapshot().Get(vmAddr(vm))
	if rs == nil {
		return fmt.Errorf("%s missing from the golden state", vmAddr(vm))
	}
	res, err := e.host.sim.Get(ctx, rs.Type, rs.ID)
	if err != nil {
		return fmt.Errorf("sim get %s: %w", rs.ID, err)
	}
	if got, want := res.Attr("name").AsString(), vmName(vm, rev); got != want {
		return fmt.Errorf("sim holds name %q for %s, want %q", got, vmAddr(vm), want)
	}
	return nil
}
