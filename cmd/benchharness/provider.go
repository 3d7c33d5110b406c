package main

// PV: provider-runtime experiment (DESIGN.md S22). Two measurements, each
// comparing the direct path (every layer calls the cloud itself, the
// pre-runtime architecture) against the provider runtime:
//
//  1. concurrent full-scan drift throughput: K scanners sweep every
//     (type, region) of a rate-limited control plane at once. Direct, each
//     scanner pays the full List bill; through a shared runtime, identical
//     in-flight Lists coalesce so the control plane sees ~one sweep.
//  2. apply under a throttling control plane: a web tier deploys while the
//     simulator injects 429 bursts whenever the observed call rate spikes.
//     The direct-style configuration (fixed window, deterministic backoff,
//     no Retry-After) keeps slamming into the limiter; AIMD + full jitter
//     back off to the sustainable rate and absorb far fewer 429s.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/state"
	"cloudless/internal/workload"
)

// jsonOutPV, when non-empty, receives machine-readable PV results.
var jsonOutPV string

type pvScanResult struct {
	Scanners          int     `json:"scanners"`
	WallDirectMs      float64 `json:"wall_direct_ms"`
	WallRuntimeMs     float64 `json:"wall_runtime_ms"`
	CallsDirect       int64   `json:"api_calls_direct"`
	CallsRuntime      int64   `json:"api_calls_runtime"`
	Coalesced         int64   `json:"coalesced_reads"`
	ThroughputDirect  float64 `json:"scans_per_sec_direct"`
	ThroughputRuntime float64 `json:"scans_per_sec_runtime"`
	SpeedupX          float64 `json:"speedup_x"`
}

type pvApplyResult struct {
	Resources        int     `json:"resources"`
	WallDirectMs     float64 `json:"wall_direct_ms"`
	WallRuntimeMs    float64 `json:"wall_runtime_ms"`
	RetriesDirect    int     `json:"retries_429_direct"`
	RetriesRuntime   int     `json:"retries_429_runtime"`
	ThrottledDirect  int64   `json:"throttled_direct"`
	ThrottledRuntime int64   `json:"throttled_runtime"`
	FinalWindow      float64 `json:"final_aimd_window"`
}

type pvResult struct {
	Experiment string        `json:"experiment"`
	Scan       pvScanResult  `json:"scan"`
	Apply      pvApplyResult `json:"apply"`
}

const (
	pvScanners = 4
	// pvScanRate throttles the control plane so the scan, like real drift
	// scans, is API-budget-bound rather than CPU-bound.
	pvScanRate = 100.0
)

func pv() {
	res := pvResult{Experiment: "PV"}
	res.Scan = pvScanThroughput()
	res.Apply = pvApplyUnder429s()

	table("scan\tdirect\truntime", [][]string{
		{"wall", fmt.Sprintf("%.0fms", res.Scan.WallDirectMs), fmt.Sprintf("%.0fms", res.Scan.WallRuntimeMs)},
		{"API calls", fmt.Sprintf("%d", res.Scan.CallsDirect), fmt.Sprintf("%d (%d coalesced)", res.Scan.CallsRuntime, res.Scan.Coalesced)},
		{"scans/s", fmt.Sprintf("%.1f", res.Scan.ThroughputDirect), fmt.Sprintf("%.1f (%.1fx)", res.Scan.ThroughputRuntime, res.Scan.SpeedupX)},
	})
	table("apply\tdirect-style\truntime", [][]string{
		{"wall", fmt.Sprintf("%.0fms", res.Apply.WallDirectMs), fmt.Sprintf("%.0fms", res.Apply.WallRuntimeMs)},
		{"429s", fmt.Sprintf("%d", res.Apply.ThrottledDirect), fmt.Sprintf("%d", res.Apply.ThrottledRuntime)},
		{"retries", fmt.Sprintf("%d", res.Apply.RetriesDirect), fmt.Sprintf("%d (window %.1f)", res.Apply.RetriesRuntime, res.Apply.FinalWindow)},
	})

	if jsonOutPV != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutPV, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutPV)
	}
	if err := pvCoalescingGate(res.Scan); err != nil {
		panic(err)
	}
}

// pvCoalescingGate fails the run when the runtime's concurrent scans did not
// coalesce into about one sweep: at most ⌈1.1 × direct ÷ scanners⌉ calls,
// with at least one read coalesced.
func pvCoalescingGate(s pvScanResult) error {
	n := int64(s.Scanners)
	bound := (11*s.CallsDirect + 10*n - 1) / (10 * n)
	if s.CallsRuntime > bound || s.Coalesced == 0 {
		return fmt.Errorf("PV: runtime scans made %d calls (%d coalesced) against %d direct across %d scanners; want at most %d and some coalesced",
			s.CallsRuntime, s.Coalesced, s.CallsDirect, s.Scanners, bound)
	}
	return nil
}

// pvScanWorld deploys a microservices estate on a rate-limited simulator
// (the deploy itself fits in the limiter's initial burst).
func pvScanWorld() (*cloud.Sim, *state.State) {
	opts := cloud.DefaultOptions()
	opts.RateLimitOverride = pvScanRate
	// Real drift scans are bound by API latency as well as rate limits:
	// model ~10ms wall per List (1s modeled x 0.01 scale).
	opts.TimeScale = 0.01
	opts.ReadLatency = time.Second
	sim := cloud.NewSim(opts)
	ex := mustExpand(workload.Microservices(6, 2))
	p := mustPlan(ex, state.New(), plan.Options{})
	res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
	if err := res.Err(); err != nil {
		panic(err)
	}
	sim.ResetMetrics()
	return sim, res.State
}

// pvRunScans runs pvScanners concurrent FullScans against cl and returns
// the wall time for all of them to finish.
func pvRunScans(cl cloud.Interface, st *state.State) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < pvScanners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := drift.FullScan(context.Background(), cl, st); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func pvScanThroughput() pvScanResult {
	r := pvScanResult{Scanners: pvScanners}

	simDirect, stDirect := pvScanWorld()
	wallDirect := pvRunScans(simDirect, stDirect)
	r.CallsDirect = simDirect.Metrics().Calls

	simRT, stRT := pvScanWorld()
	rt := provider.New(simRT, provider.Options{})
	wallRT := pvRunScans(rt, stRT)
	r.CallsRuntime = simRT.Metrics().Calls
	r.Coalesced = rt.Stats().Coalesced

	r.WallDirectMs = float64(wallDirect.Microseconds()) / 1000
	r.WallRuntimeMs = float64(wallRT.Microseconds()) / 1000
	r.ThroughputDirect = float64(pvScanners) / wallDirect.Seconds()
	r.ThroughputRuntime = float64(pvScanners) / wallRT.Seconds()
	r.SpeedupX = r.ThroughputRuntime / r.ThroughputDirect
	return r
}

// pvThrottlingSim builds a simulator whose control plane injects 429 bursts
// whenever the sampled call rate exceeds sustainable, stopping when done is
// closed. This models real provider throttling: pressure-proportional, not
// scripted — so an adaptive client genuinely earns fewer 429s.
func pvThrottlingSim(done <-chan struct{}) *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0.0005 // 15s modeled VM create -> ~7.5ms wall
	sim := cloud.NewSim(opts)
	go func() {
		const tick = 10 * time.Millisecond
		const sustainable = 4 // calls per tick (~400/s)
		last := sim.Metrics().Calls
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			cur := sim.Metrics().Calls
			if delta := cur - last; delta > sustainable {
				sim.InjectThrottles(int(delta-sustainable) / 2)
			}
			last = cur
		}
	}()
	return sim
}

func pvApplyOnce(ropts provider.Options) (wall time.Duration, retries int, throttled int64, window float64) {
	done := make(chan struct{})
	sim := pvThrottlingSim(done)
	defer close(done)

	rt := provider.New(sim, ropts)
	ex := mustExpand(workload.WebTier("web", 4, 48))
	p := mustPlan(ex, state.New(), plan.Options{})
	start := time.Now()
	res := apply.Apply(context.Background(), rt, p, apply.Options{
		Principal: "cloudless", Concurrency: 32,
	})
	wall = time.Since(start)
	if err := res.Err(); err != nil {
		panic(err)
	}
	for _, w := range rt.Stats().Windows {
		window = w
	}
	return wall, res.Retries, sim.Metrics().Throttled, window
}

func pvApplyUnder429s() pvApplyResult {
	r := pvApplyResult{}
	ex := mustExpand(workload.WebTier("web", 4, 48))
	r.Resources = len(ex.Instances)

	// Direct-style: the retry policy every layer had before the runtime —
	// fixed concurrency window, deterministic exponential backoff, no
	// Retry-After, no coalescing.
	wallD, retriesD, throttledD, _ := pvApplyOnce(provider.Options{
		MaxRetries: 16, DisableAdaptive: true, DisableJitter: true,
		IgnoreRetryAfter: true, DisableCoalesce: true,
	})
	r.WallDirectMs = float64(wallD.Microseconds()) / 1000
	r.RetriesDirect = retriesD
	r.ThrottledDirect = throttledD

	wallR, retriesR, throttledR, window := pvApplyOnce(provider.Options{MaxRetries: 16})
	r.WallRuntimeMs = float64(wallR.Microseconds()) / 1000
	r.RetriesRuntime = retriesR
	r.ThrottledRuntime = throttledR
	r.FinalWindow = window
	return r
}
