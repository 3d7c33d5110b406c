package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
)

// sizes fixes how much work each workload does per operation. The defaults
// are part of the benchmark's definition; the smoke test shrinks them.
type sizes struct {
	planDecls     int // RandomDAG declarations behind plan_cold and edit_loop
	cycleDecls    int // RandomDAG declarations behind converge_cycle
	driftPerCycle int // foreign updates injected per converge_cycle cycle
	tenants       int // daemon_mixed workspaces
	tenantVMs     int // NIC+VM pairs per daemon_mixed workspace
	clients       int // daemon_mixed client goroutines (closed loop)
	setupRepeats  int // set-ups per untraced run; setup_s is their median
}

var defaultSizes = sizes{
	planDecls:     667, // 1 002 instances
	cycleDecls:    167, // 252 instances
	driftPerCycle: 20,
	tenants:       8,
	tenantVMs:     10, // 25 resources
	clients:       2,
	setupRepeats:  3,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	sizes    sizes
	// dir is the scratch root: state dirs, journals, daemon binary and data.
	dir string
}

// run accumulates one invocation's outcome.
type run struct {
	attempted, failed int
	violations        []string
	metrics           map[string]float64
}

func newRun() *run { return &run{metrics: map[string]float64{}} }

// done closes one operation: a non-nil err is a failed or incorrect one.
func (r *run) done(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a correctness violation found outside a counted operation.
func (r *run) fail(err error) {
	r.failed++
	if len(r.violations) < 5 {
		r.violations = append(r.violations, err.Error())
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// latency reports a run's reference passes under the shared names: the
// median, throughput, and the tail with the sample count behind them.
func (r *run) latency(p refPass) {
	pct, tv := tail(p.lat)
	r.set("op_ms_p50", median(p.lat))
	r.set("ops_per_s", float64(len(p.lat))/p.elapsed.Seconds())
	r.set("op_ms_tail", tv)
	r.set("op_tail_pct", float64(pct))
	r.set("op_samples", float64(len(p.lat)))
	r.set("bench.cpu_s", p.cpu/float64(len(p.lat)))
}

// cloudHost is the simulated cloud: zero modelled latency, no rate limit,
// reached over loopback HTTP so the client, wire and server code all run. A
// trace run serves the same sim a second time behind the recording handler,
// so its reference pass and its traced pass differ only in the decorators.
type cloudHost struct {
	sim    *cloud.Sim
	plain  *httptest.Server
	traced *httptest.Server // nil outside trace runs
	calls  *callLog         // client-side intervals of the traced pass
	served *callLog         // handler-side intervals of the traced pass
}

// newSim is the cloud every measurement runs against: control-plane overhead
// and call counts are the subject, not simulated provisioning sleep.
func newSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.TimeScale = 0
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

func newCloudHost(traceRun bool) *cloudHost {
	h := &cloudHost{sim: newSim(), calls: &callLog{}, served: &callLog{}}
	handler := cloud.NewServer(h.sim, slog.New(slog.NewTextHandler(io.Discard, nil)))
	h.plain = httptest.NewServer(handler)
	if traceRun {
		h.traced = httptest.NewServer(tracedHandler(handler, h.served))
	}
	return h
}

func (h *cloudHost) close() {
	h.plain.Close()
	if h.traced != nil {
		h.traced.Close()
	}
}

// url is the endpoint a daemon dials.
func (h *cloudHost) url(traced bool) string {
	if traced {
		return h.traced.URL
	}
	return h.plain.URL
}

// client is what a stack gets as Options.Cloud.
func (h *cloudHost) client(traced bool) cloud.Interface {
	if traced {
		return tracedCloud{in: cloud.NewClient(h.traced.URL, nil), log: h.calls}
	}
	return cloud.NewClient(h.plain.URL, nil)
}

// open opens the stack the way cloudlessd runs one in production: defaults
// everywhere, durable WAL state and an apply journal under dir.
func (h *cloudHost) open(dir string, sources map[string]string, vars map[string]any, traced bool) (*cloudless.Stack, error) {
	return cloudless.Open(cloudless.Options{
		Sources:      sources,
		Vars:         vars,
		Cloud:        h.client(traced),
		StateBackend: cloudless.BackendWAL,
		StateDir:     filepath.Join(dir, "state.wal"),
		JournalPath:  filepath.Join(dir, "run.journal"),
	})
}

// deploy converges st from whatever it holds to its configuration.
func deploy(ctx context.Context, st *cloudless.Stack) error {
	p, err := st.Replan(ctx)
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	res, _, err := st.Apply(ctx, p, cloudless.ApplyOptions{})
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if want := p.PendingCount(); res.Applied != want {
		return fmt.Errorf("apply: applied %d of %d planned ops", res.Applied, want)
	}
	return nil
}

// timedSetup sets up `repeats` times, tearing down all but the last, and
// returns the last set-up with the median set-up time in seconds. Repeating
// keeps one slow start (a cold build cache, a page-cache miss) out of
// setup_s.
func timedSetup[T any](repeats int, setUp func() (T, error), tearDown func(T)) (T, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		v, err := setUp()
		if err != nil {
			return v, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == repeats-1 {
			return v, median(times), nil
		}
		tearDown(v)
	}
}

// planDigest fingerprints everything a plan consumer observes; equal
// digests mean identical plans.
func planDigest(p *plan.Plan) uint64 {
	h := fnv.New64a()
	w := func(s string) { io.WriteString(h, s); h.Write([]byte{0}) }
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
	addrs := make([]string, 0, len(p.Changes))
	for a := range p.Changes {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
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
	w(p.Summary())
	return h.Sum64()
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	_ = filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file compacted away mid-walk is not an error here
	})
	return n
}

// selfRSSMiB is this process's peak resident set so far.
func selfRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
