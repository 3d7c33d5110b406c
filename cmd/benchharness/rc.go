package main

// RC: continuous reconciliation (DESIGN.md S29). Three parts:
//
// Part 1 — detection/repair latency and API cost under foreign churn: the
// event-driven converge loop (activity tail + scoped verification) against
// the only alternative today's engines offer, a periodic FullScan loop that
// re-reads the whole estate every period. Scored on time-to-repair per drift
// and cloud API calls per drift.
//
// Part 2 — the "never make things worse" contract: repair mode vs
// detect-only under combined foreign-mutation storms and injected readiness
// faults (failed repairs gate out and roll back). Per trial, the repair arm
// must end with no more drifted resources than the detect-only arm; any
// trial where auto-repair leaves the estate worse than doing nothing is a
// hard failure.
//
// Part 3 — the circuit breaker: a persistently failing repair target must
// trip the breaker into detect-only (no unbounded retry storms), and the
// controller must recover to repairing once the fault clears.
//
// The controller runs with its production timing (reconcile.Debounce and
// its siblings). Parts 1 and 2 run in real time; part 3 waits out backoffs
// and a one-minute breaker cooloff, so its controller runs on a
// telemetry.VirtualClock the part advances.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/reconcile"
	"cloudless/internal/telemetry"
	"cloudless/internal/workload"
	"cloudless/internal/workspace"
)

var jsonOutRC string

type rcResult struct {
	Experiment string `json:"experiment"`

	// Part 1: event-driven vs periodic FullScan under foreign churn.
	Drifts                int     `json:"drifts_per_arm"`
	EventTTRp50Ms         float64 `json:"event_ttr_p50_ms"`
	EventTTRMaxMs         float64 `json:"event_ttr_max_ms"`
	PeriodicTTRp50Ms      float64 `json:"periodic_ttr_p50_ms"`
	PeriodicTTRMaxMs      float64 `json:"periodic_ttr_max_ms"`
	EventCallsPerDrift    float64 `json:"event_api_calls_per_drift"`
	PeriodicCallsPerDrift float64 `json:"periodic_api_calls_per_drift"`

	// Part 2: repair vs detect-only under fault storms.
	StormTrials       int `json:"storm_trials"`
	BrokenDetectOnly  int `json:"broken_detect_only_total"`
	BrokenRepair      int `json:"broken_repair_total"`
	RepairWorseTrials int `json:"repair_worse_trials"` // must be 0

	// Part 3: breaker under a persistent fault.
	BreakerTrips     int64 `json:"breaker_trips"`     // must be >= 1
	BreakerRecovered bool  `json:"breaker_recovered"` // repair succeeded after fault cleared
}

// rcPeriod is the baseline's FullScan period: a generous-to-the-baseline
// 300ms (real periodic scanners run minutes apart).
const rcPeriod = 300 * time.Millisecond

// rcReconciler is the bench's controller: activity polling is the only
// detection path (periodic FullScan disabled).
func rcReconciler(mode string, clk telemetry.Clock) workspace.ReconcilerOptions {
	return workspace.ReconcilerOptions{Mode: mode, Watermark: -1, FullScanEvery: -1, Clock: clk}
}

// rcDeploy stands up a web tier workspace on a fresh fast sim.
func rcDeploy(name string) (*cloud.Sim, *workspace.Workspace) {
	sim := fastSim()
	ws, err := workspace.New(workspace.Config{
		Name: name, Sources: workload.WebTier(name, 2, 4), Cloud: sim,
	})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	p, err := ws.Plan(ctx)
	if err != nil {
		panic(err)
	}
	if _, _, err := ws.Apply(ctx, p, workspace.ApplyOptions{}); err != nil {
		panic(err)
	}
	return sim, ws
}

// rcTargets lists driftable (type, id, declared-name) triples for the tier.
func rcTargets(sim *cloud.Sim) []rcTarget {
	ctx := context.Background()
	var out []rcTarget
	for _, typ := range []string{"aws_vpc", "aws_security_group", "aws_subnet"} {
		rs, err := sim.List(ctx, typ, "")
		if err != nil {
			panic(err)
		}
		for _, r := range rs {
			out = append(out, rcTarget{typ: typ, id: r.ID, name: r.Attrs["name"].AsString()})
		}
	}
	return out
}

type rcTarget struct{ typ, id, name string }

// rcPick draws the next churn target, passing over any already drifted
// reconcile.FlapThreshold times: one more would be flap-suppressed, which
// is damping (exercised in part 2 and the controller's tests), not repair
// latency.
func rcPick(rng *rand.Rand, targets []rcTarget, used map[int]int) rcTarget {
	for {
		if i := rng.Intn(len(targets)); used[i] < reconcile.FlapThreshold {
			used[i]++
			return targets[i]
		}
	}
}

// rcInject renames the target under a foreign principal.
func rcInject(sim *cloud.Sim, tgt rcTarget, as string) {
	if _, err := sim.Update(context.Background(), cloud.UpdateRequest{
		Type: tgt.typ, ID: tgt.id,
		Attrs:     map[string]eval.Value{"name": eval.String(as)},
		Principal: "intruder",
	}); err != nil {
		panic(err)
	}
}

// rcAwaitRestore polls until the target's declared name is back, returning
// the elapsed time.
func rcAwaitRestore(sim *cloud.Sim, tgt rcTarget, timeout time.Duration) time.Duration {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		r, err := sim.Get(ctx, tgt.typ, tgt.id)
		if err == nil && r.Attrs["name"].AsString() == tgt.name {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("RC: drift on %s/%s never repaired", tgt.typ, tgt.id))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rcDriftCount counts drifted managed resources right now.
func rcDriftCount(sim *cloud.Sim, ws *workspace.Workspace) int {
	rep, err := drift.FullScan(context.Background(), sim, ws.DB().Snapshot())
	if err != nil {
		panic(err)
	}
	n := 0
	for _, it := range rep.Items {
		if it.Addr != "" {
			n++
		}
	}
	return n
}

// rcBroken is the storm-trial score: managed resources that are drifted OR
// terminally unhealthy — everything an operator would have to fix by hand.
func rcBroken(sim *cloud.Sim, ws *workspace.Workspace) int {
	ctx := context.Background()
	bad := map[string]bool{}
	rep, err := drift.FullScan(ctx, sim, ws.DB().Snapshot())
	if err != nil {
		panic(err)
	}
	for _, it := range rep.Items {
		if it.Addr != "" {
			bad[it.Addr] = true
		}
	}
	snap := ws.DB().Snapshot()
	for _, addr := range snap.Addrs() {
		rs := snap.Get(addr)
		if h, err := sim.Health(ctx, rs.Type, rs.ID); err == nil && h.Status == cloud.HealthFailed {
			bad[addr] = true
		}
	}
	return len(bad)
}

func pctl(xs []float64) (p50, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2], s[len(s)-1]
}

// rcChurnEvent runs the event-driven arm: the converge loop repairs each
// injected drift; we score repair latency and the API calls the whole
// detect+verify+repair pipeline spent per drift.
func rcChurnEvent(drifts int, rng *rand.Rand) (ttrs []float64, callsPerDrift float64) {
	sim, ws := rcDeploy("rce")
	ctx := context.Background()
	defer ws.Close(ctx)
	if _, err := ws.StartReconciler(rcReconciler(reconcile.ModeRepair, nil)); err != nil {
		panic(err)
	}
	targets := rcTargets(sim)
	used := map[int]int{}
	calls0 := sim.Metrics().Calls
	for i := 0; i < drifts; i++ {
		tgt := rcPick(rng, targets, used)
		rcInject(sim, tgt, fmt.Sprintf("rogue-%d", i))
		ttrs = append(ttrs, float64(rcAwaitRestore(sim, tgt, 30*time.Second))/float64(time.Millisecond))
		// Random think time between incidents, like real churn.
		time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
	}
	return ttrs, float64(sim.Metrics().Calls-calls0) / float64(drifts)
}

// rcChurnPeriodic runs the baseline arm: no event subscription, just a
// FullScan every rcPeriod followed by a repair of whatever it found.
func rcChurnPeriodic(drifts int, rng *rand.Rand) (ttrs []float64, callsPerDrift float64) {
	sim, ws := rcDeploy("rcp")
	ctx := context.Background()
	defer ws.Close(ctx)
	targets := rcTargets(sim)
	used := map[int]int{}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rcPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rep, err := ws.ScanDrift(ctx)
				if err != nil {
					continue
				}
				if rep.HasDrift() {
					_, _ = ws.RepairDrift(ctx, rep)
				}
			}
		}
	}()

	calls0 := sim.Metrics().Calls
	for i := 0; i < drifts; i++ {
		tgt := rcPick(rng, targets, used)
		// Random phase within the scan period, like real incidents.
		time.Sleep(time.Duration(rng.Intn(int(rcPeriod))))
		rcInject(sim, tgt, fmt.Sprintf("rogue-%d", i))
		ttrs = append(ttrs, float64(rcAwaitRestore(sim, tgt, 30*time.Second))/float64(time.Millisecond))
	}
	callsPerDrift = float64(sim.Metrics().Calls-calls0) / float64(drifts)
	close(stop)
	<-done
	return ttrs, callsPerDrift
}

// rcStormTrial runs one repair-vs-detect trial: the same storm of foreign
// renames plus injected readiness faults against two identical estates; the
// returned counts are drifted resources left at the end of the settle
// window.
func rcStormTrial(trial int, rng *rand.Rand) (brokenDetect, brokenRepair int) {
	type arm struct {
		sim *cloud.Sim
		ws  *workspace.Workspace
	}
	mk := func(name, mode string) arm {
		sim, ws := rcDeploy(name)
		if _, err := ws.StartReconciler(rcReconciler(mode, nil)); err != nil {
			panic(err)
		}
		return arm{sim, ws}
	}
	ctx := context.Background()
	det := mk(fmt.Sprintf("rcd%d", trial), reconcile.ModeDetect)
	repa := mk(fmt.Sprintf("rcr%d", trial), reconcile.ModeRepair)
	defer det.ws.Close(ctx)
	defer repa.ws.Close(ctx)

	// The same storm hits both estates: foreign renames, foreign deletes, and
	// armed readiness faults that make a recreation repair come up broken —
	// the guarded repair gates out and rolls the blast radius back instead of
	// declaring victory over a failed resource.
	dTargets, rTargets := rcTargets(det.sim), rcTargets(repa.sim)
	storm := 3 + rng.Intn(3)
	for i := 0; i < storm; i++ {
		if i == 0 && rng.Intn(2) == 0 {
			// Foreign delete of the load balancer (the tier's only leaf the
			// sim's referential integrity allows out), sometimes with a
			// poisoned recreate: the repair's fresh LB comes up failed, gates
			// out, and rolls back — a repair that cannot win.
			if rng.Intn(2) == 0 {
				det.sim.InjectUnhealthy(cloud.UnhealthySpec{Count: 20, Type: "aws_load_balancer"})
				repa.sim.InjectUnhealthy(cloud.UnhealthySpec{Count: 20, Type: "aws_load_balancer"})
			}
			rcDeleteLB(det.sim)
			rcDeleteLB(repa.sim)
		} else {
			ti := rng.Intn(len(dTargets))
			rcInject(det.sim, dTargets[ti], fmt.Sprintf("storm-%d-%d", trial, i))
			rcInject(repa.sim, rTargets[ti], fmt.Sprintf("storm-%d-%d", trial, i))
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
	}
	// Settle: long enough for every repair attempt (and its backoff retries)
	// to either converge or give up into backoff/breaker.
	time.Sleep(800 * time.Millisecond)
	return rcBroken(det.sim, det.ws), rcBroken(repa.sim, repa.ws)
}

// rcDeleteLB foreign-deletes the tier's load balancer.
func rcDeleteLB(sim *cloud.Sim) {
	ctx := context.Background()
	lbs, err := sim.List(ctx, "aws_load_balancer", "")
	if err != nil {
		panic(err)
	}
	for _, lb := range lbs {
		if err := sim.Delete(ctx, "aws_load_balancer", lb.ID, "intruder"); err != nil {
			panic(err)
		}
	}
}

// rcBreaker drives a persistent repair failure — a foreign-deleted load
// balancer whose every recreation comes up broken — until the breaker trips
// into detect-only, then clears the fault and confirms the controller
// recovers and converges. The controller's clock is virtual: each step
// moves it a minute, past every deadline the controller can hold, and
// waits for the round that wakes to finish and the loop to park again.
func rcBreaker() (trips int64, recovered bool) {
	sim, ws := rcDeploy("rcb")
	ctx := context.Background()
	defer ws.Close(ctx)
	clk := telemetry.NewVirtualClock(time.Now(), 0)
	ctrl, err := ws.StartReconciler(rcReconciler(reconcile.ModeRepair, clk))
	if err != nil {
		panic(err)
	}
	clk.BlockUntil(1)
	step := func(d time.Duration) { clk.BlockUntil(clk.Advance(d) + 1) }

	sim.InjectUnhealthy(cloud.UnhealthySpec{Count: 1000, Type: "aws_load_balancer"})
	parked := clk.Waiters()
	rcDeleteLB(sim)
	clk.BlockUntil(parked + 1) // the delete's debounce
	step(reconcile.Debounce)
	for i := 0; ctrl.Status().BreakerTrips == 0; i++ {
		if i == 2*reconcile.BreakerThreshold {
			st, _ := json.Marshal(ctrl.Status())
			panic(fmt.Sprintf("RC: breaker never tripped under a persistent repair fault: %s", st))
		}
		step(time.Minute)
	}
	trips = ctrl.Status().BreakerTrips

	// Fault clears: pending injections go away and any broken LB instance
	// left by failed attempts turns healthy. The half-open trial must close
	// the breaker and the estate must converge drift-free.
	sim.ClearInjections()
	lbs, err := sim.List(ctx, "aws_load_balancer", "")
	if err != nil {
		panic(err)
	}
	for _, lb := range lbs {
		sim.SetHealth("aws_load_balancer", lb.ID, cloud.HealthReady, "")
	}
	for i := 0; i < 5; i++ {
		step(time.Minute)
		st := ctrl.Status()
		if !st.BreakerOpen && st.Repaired >= 1 && rcDriftCount(sim, ws) == 0 {
			return trips, true
		}
	}
	return trips, false
}

func rc() {
	const drifts = 10
	// CI's reconcile-smoke job runs a reduced storm budget under -race;
	// the captured run uses the default.
	storms := 6
	if v := os.Getenv("CLOUDLESS_RC_TRIALS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			storms = n
		}
	}
	out := rcResult{Experiment: "RC", Drifts: drifts, StormTrials: storms}

	// Part 1: churn race.
	eventTTRs, eventCalls := rcChurnEvent(drifts, rand.New(rand.NewSource(41)))
	periodicTTRs, periodicCalls := rcChurnPeriodic(drifts, rand.New(rand.NewSource(41)))
	out.EventTTRp50Ms, out.EventTTRMaxMs = pctl(eventTTRs)
	out.PeriodicTTRp50Ms, out.PeriodicTTRMaxMs = pctl(periodicTTRs)
	out.EventCallsPerDrift, out.PeriodicCallsPerDrift = eventCalls, periodicCalls

	table("arm\tttr p50\tttr max\tapi calls/drift", [][]string{
		{"event-driven converge loop", fmt.Sprintf("%.0fms", out.EventTTRp50Ms),
			fmt.Sprintf("%.0fms", out.EventTTRMaxMs), fmt.Sprintf("%.1f", out.EventCallsPerDrift)},
		{fmt.Sprintf("periodic FullScan (%s)", rcPeriod), fmt.Sprintf("%.0fms", out.PeriodicTTRp50Ms),
			fmt.Sprintf("%.0fms", out.PeriodicTTRMaxMs), fmt.Sprintf("%.1f", out.PeriodicCallsPerDrift)},
	})

	// Part 2: the never-worse contract.
	for trial := 0; trial < out.StormTrials; trial++ {
		rng := rand.New(rand.NewSource(int64(5200 + trial)))
		d, r := rcStormTrial(trial, rng)
		out.BrokenDetectOnly += d
		out.BrokenRepair += r
		if r > d {
			out.RepairWorseTrials++
		}
	}
	fmt.Printf("\nstorm trials (foreign churn + injected readiness faults): %d\n", out.StormTrials)
	fmt.Printf("  drifted resources left: detect-only=%d  auto-repair=%d  (repair worse in %d trials)\n",
		out.BrokenDetectOnly, out.BrokenRepair, out.RepairWorseTrials)

	// Part 3: breaker.
	out.BreakerTrips, out.BreakerRecovered = rcBreaker()
	fmt.Printf("breaker: tripped %d time(s) under a persistent fault, recovered=%v\n",
		out.BreakerTrips, out.BreakerRecovered)

	if out.RepairWorseTrials > 0 {
		panic(fmt.Sprintf("RC: auto-repair left the estate worse than detect-only in %d trial(s)", out.RepairWorseTrials))
	}
	if out.BrokenRepair >= out.BrokenDetectOnly && out.BrokenDetectOnly > 0 {
		panic("RC: auto-repair fixed nothing across the storm trials — repairs are not biting")
	}
	if out.BreakerTrips == 0 {
		panic("RC: breaker never tripped")
	}
	if !out.BreakerRecovered {
		panic("RC: breaker did not recover after the fault cleared")
	}
	if out.EventTTRp50Ms >= out.PeriodicTTRp50Ms {
		panic(fmt.Sprintf("RC: event-driven p50 TTR %.0fms is not better than periodic %.0fms",
			out.EventTTRp50Ms, out.PeriodicTTRp50Ms))
	}
	if out.EventCallsPerDrift >= out.PeriodicCallsPerDrift {
		panic(fmt.Sprintf("RC: event-driven %.1f API calls/drift is not better than periodic %.1f",
			out.EventCallsPerDrift, out.PeriodicCallsPerDrift))
	}

	if jsonOutRC != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutRC, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutRC)
	}
}
