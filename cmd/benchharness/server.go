package main

// SV: the workspace server under multi-tenant load (DESIGN.md S27). N
// simulated teams drive mixed plan/apply/drift jobs through the full HTTP
// path — client -> cloudlessd handlers -> job queue -> workspace engines —
// while the offered load is held at ~2x the worker pool. Measures job wait
// (submit -> start) and total latency (submit -> finish) percentiles, Jain's
// fairness index across tenants, and the noisy-neighbour bound: a tenant
// saturating the queue must not push a light tenant's p99 wait above its
// own.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/workload"
	"cloudless/internal/workspace"
)

var jsonOutSV string

type svTenantStat struct {
	Tenant    string  `json:"tenant"`
	Jobs      int     `json:"jobs"`
	P50WaitMs float64 `json:"p50_wait_ms"`
	P99WaitMs float64 `json:"p99_wait_ms"`
}

type svResult struct {
	Experiment    string         `json:"experiment"`
	Tenants       int            `json:"tenants"`
	Workers       int            `json:"workers"`
	JobsPerTenant int            `json:"jobs_per_tenant"`
	OverloadX     float64        `json:"overload_x"`
	P50WaitMs     float64        `json:"p50_wait_ms"`
	P99WaitMs     float64        `json:"p99_wait_ms"`
	P50TotalMs    float64        `json:"p50_total_ms"`
	P99TotalMs    float64        `json:"p99_total_ms"`
	Fairness      float64        `json:"fairness_jain"`
	PerTenant     []svTenantStat `json:"per_tenant"`
	LightP99Ms    float64        `json:"noisy_light_p99_wait_ms"`
	NoisyP99Ms    float64        `json:"noisy_saturator_p99_wait_ms"`
}

// svHarness is one server stack (sim cloud -> manager -> queue -> HTTP).
type svHarness struct {
	client *server.Client
	close  func()
}

func newSVHarness(workers int) *svHarness {
	simOpts := cloud.DefaultOptions()
	simOpts.DisableRateLimit = true
	simOpts.TimeScale = 0.0002
	mgr := workspace.NewManager(workspace.ManagerOptions{Cloud: cloud.NewSim(simOpts)})
	queue := jobs.New(jobs.Options{Workers: workers})
	srv := server.New(server.Options{Manager: mgr, Queue: queue})
	ts := httptest.NewServer(srv.Handler())
	return &svHarness{
		client: server.NewClient(ts.URL, "", nil),
		close: func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				panic(err)
			}
		},
	}
}

// setupTenant creates a deployed workspace for one team (the initial apply
// is setup, not measurement).
func (h *svHarness) setupTenant(ctx context.Context, name string) {
	if _, err := h.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: name, Sources: workload.WebTier(name, 2, 3),
	}); err != nil {
		panic(err)
	}
	h.mustRun(ctx, name, server.JobRequest{Kind: "apply"})
}

func (h *svHarness) mustRun(ctx context.Context, ws string, req server.JobRequest) jobs.View {
	st, err := h.client.SubmitJob(ctx, ws, req)
	if err != nil {
		panic(fmt.Sprintf("%s %s submit: %v", ws, req.Kind, err))
	}
	if st, err = h.client.WaitJob(ctx, ws, st.ID); err != nil {
		panic(fmt.Sprintf("%s %s wait: %v", ws, req.Kind, err))
	}
	if st.Status != jobs.StatusSucceeded {
		panic(fmt.Sprintf("%s %s job %s: %s (%s)", ws, req.Kind, st.ID, st.Status, st.Err))
	}
	return st.View
}

// driveTenant keeps `window` jobs in flight for one tenant until `total`
// jobs have completed, cycling through the team's steady-state mix.
func (h *svHarness) driveTenant(ctx context.Context, ws string, total, window int) []jobs.View {
	mix := []string{"plan", "scan", "plan", "apply"}
	var mu sync.Mutex
	var views []jobs.View
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= total {
					mu.Unlock()
					return
				}
				kind := mix[next%len(mix)]
				next++
				mu.Unlock()
				v := h.mustRun(ctx, ws, server.JobRequest{Kind: kind})
				mu.Lock()
				views = append(views, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return views
}

func svWaitMs(v jobs.View) float64 {
	return float64(v.Started.Sub(v.Submitted)) / float64(time.Millisecond)
}

func svTotalMs(v jobs.View) float64 {
	return float64(v.Finished.Sub(v.Submitted)) / float64(time.Millisecond)
}

func svPercentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// jain computes Jain's fairness index over per-tenant service rates:
// (sum x)^2 / (n * sum x^2), 1.0 = perfectly even.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func sv() {
	const (
		tenants       = 4
		workers       = 4
		windowPer     = 2 // tenants * windowPer = 2x the worker pool
		jobsPerTenant = 40
	)
	ctx := context.Background()

	// Phase 1 — balanced overload: every tenant offers the same sustained
	// load, total in-flight held at 2x capacity.
	h := newSVHarness(workers)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("team-%d", i)
		h.setupTenant(ctx, names[i])
	}
	perTenant := make([][]jobs.View, tenants)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			perTenant[i] = h.driveTenant(ctx, name, jobsPerTenant, windowPer)
		}(i, name)
	}
	wg.Wait()

	res := svResult{
		Experiment: "SV", Tenants: tenants, Workers: workers,
		JobsPerTenant: jobsPerTenant,
		OverloadX:     float64(tenants*windowPer) / float64(workers),
	}
	var allWaits, allTotals, rates []float64
	rows := [][]string{}
	for i, name := range names {
		var waits []float64
		var meanWait float64
		for _, v := range perTenant[i] {
			w := svWaitMs(v)
			waits = append(waits, w)
			meanWait += w
			allWaits = append(allWaits, w)
			allTotals = append(allTotals, svTotalMs(v))
		}
		meanWait /= float64(len(waits))
		if meanWait < 1e-3 {
			meanWait = 1e-3
		}
		rates = append(rates, 1/meanWait)
		st := svTenantStat{
			Tenant: name, Jobs: len(perTenant[i]),
			P50WaitMs: svPercentile(waits, 0.50),
			P99WaitMs: svPercentile(waits, 0.99),
		}
		res.PerTenant = append(res.PerTenant, st)
		rows = append(rows, []string{name, fmt.Sprintf("%d", st.Jobs),
			fmt.Sprintf("%.1fms", st.P50WaitMs), fmt.Sprintf("%.1fms", st.P99WaitMs)})
	}
	res.P50WaitMs = svPercentile(allWaits, 0.50)
	res.P99WaitMs = svPercentile(allWaits, 0.99)
	res.P50TotalMs = svPercentile(allTotals, 0.50)
	res.P99TotalMs = svPercentile(allTotals, 0.99)
	res.Fairness = jain(rates)
	h.close()

	table("tenant\tjobs\tp50 wait\tp99 wait", rows)
	fmt.Printf("overall: p50 wait %.1fms, p99 wait %.1fms, p50 total %.1fms, p99 total %.1fms (%.1fx overload)\n",
		res.P50WaitMs, res.P99WaitMs, res.P50TotalMs, res.P99TotalMs, res.OverloadX)
	fmt.Printf("fairness (Jain over per-tenant service rate): %.3f\n", res.Fairness)
	// Sub-millisecond service times make the rate estimate noisy; 0.75 still
	// catches real starvation (a stalled tenant drags Jain under 0.7) without
	// tripping on scheduler-jitter noise.
	if res.Fairness < 0.75 {
		panic(fmt.Sprintf("SV: fairness index %.3f below 0.75 — the scheduler is starving a tenant", res.Fairness))
	}

	// Phase 2 — noisy neighbour: one tenant floods the queue (8 jobs in
	// flight) while three light tenants submit one at a time. Fair
	// scheduling means the light tenants' p99 wait stays at or below the
	// saturator's.
	h2 := newSVHarness(workers)
	lightNames := []string{"light-0", "light-1", "light-2"}
	h2.setupTenant(ctx, "noisy")
	for _, n := range lightNames {
		h2.setupTenant(ctx, n)
	}
	var lightViews []jobs.View
	var lvMu sync.Mutex
	var wg2 sync.WaitGroup
	wg2.Add(1)
	var noisyViews []jobs.View
	go func() {
		defer wg2.Done()
		noisyViews = h2.driveTenant(ctx, "noisy", 48, 8)
	}()
	for _, n := range lightNames {
		wg2.Add(1)
		go func(n string) {
			defer wg2.Done()
			vs := h2.driveTenant(ctx, n, 8, 1)
			lvMu.Lock()
			lightViews = append(lightViews, vs...)
			lvMu.Unlock()
		}(n)
	}
	wg2.Wait()
	var lightWaits, noisyWaits []float64
	for _, v := range lightViews {
		lightWaits = append(lightWaits, svWaitMs(v))
	}
	for _, v := range noisyViews {
		noisyWaits = append(noisyWaits, svWaitMs(v))
	}
	res.LightP99Ms = svPercentile(lightWaits, 0.99)
	res.NoisyP99Ms = svPercentile(noisyWaits, 0.99)
	h2.close()

	fmt.Printf("noisy neighbour: light tenants p99 wait %.1fms vs saturator p99 wait %.1fms\n",
		res.LightP99Ms, res.NoisyP99Ms)
	if res.NoisyP99Ms > 0 && res.LightP99Ms > 2*res.NoisyP99Ms {
		panic(fmt.Sprintf("SV: light tenant p99 wait %.1fms exceeds 2x the saturator's %.1fms — fair share violated",
			res.LightP99Ms, res.NoisyP99Ms))
	}

	if jsonOutSV != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutSV, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutSV)
	}
}
