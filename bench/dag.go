package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
)

// A trace run splits its window between an undecorated reference pass and
// the decorated pass over the same inputs, alternating between them so the
// machine's slow drift hits both alike: the ratio of their medians is the
// tracing overhead. What is left of the run goes to direct calls into single
// layers, which are bounded by count, not time.
const (
	refShare    = 0.4
	tracedShare = 0.4 // equal, so both kinds of pass warm up alike
	traceRounds = 2
)

// measure drives a workload's measuring loop. pass(traced, d) runs
// operations for d; the plain passes are accounted to ref. switchTo rebinds
// the workload to the plain or the recording cloud before each pass of a
// trace run. An untraced run is one plain pass over the whole window.
func (c runConfig) measure(ref *refPass, switchTo func(traced bool) error, pass func(traced bool, d time.Duration)) error {
	if !c.traced {
		ref.timed(func() { pass(false, c.window) })
		return nil
	}
	for i := 0; i < traceRounds; i++ {
		if err := switchTo(false); err != nil {
			return err
		}
		ref.timed(func() { pass(false, time.Duration(refShare*float64(c.window)/traceRounds)) })
		if err := switchTo(true); err != nil {
			return err
		}
		pass(true, time.Duration(tracedShare*float64(c.window)/traceRounds))
	}
	return nil
}

// refPass accumulates the reference (undecorated) passes of a run: the
// end-to-end numbers come from these alone.
type refPass struct {
	lat     samples
	elapsed time.Duration
	cpu     float64 // CPU seconds of this process
}

// timed runs one reference pass and folds its wall and CPU time in.
func (p *refPass) timed(fn func()) {
	t0, cpu0 := time.Now(), selfCPUSeconds()
	fn()
	p.elapsed += time.Since(t0)
	p.cpu += selfCPUSeconds() - cpu0
}

func (c runConfig) setupRepeats() int {
	if c.traced {
		return 1 // setup_s is an end-to-end metric; a trace run does not report it
	}
	return c.sizes.setupRepeats
}

// dagEnv is what the three library workloads share: a cloud, a scratch
// directory, and the seeded random-DAG configuration.
type dagEnv struct {
	host    *cloudHost
	dir     string
	sources map[string]string
	vms     int
	vars    map[string]any   // variables set so far; a reopened stack starts from them
	st      *cloudless.Stack // the open stack, if the workload holds one
}

// newDagEnv builds the environment and lets prepare bring it to the state
// the workload's window starts from; a failed prepare leaves nothing behind.
func newDagEnv(cfg runConfig, decls int, prepare func(*dagEnv) error) (*dagEnv, error) {
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	e := &dagEnv{host: newCloudHost(cfg.traced), dir: dir, vars: map[string]any{}}
	e.sources, e.vms = dagSources(decls, cfg.seed)
	if err := prepare(e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *dagEnv) close() {
	if e.st != nil {
		_ = e.st.Close() // tear-down of a scratch stack; its state dir is removed next
	}
	e.host.close()
	_ = os.RemoveAll(e.dir)
}

func (e *dagEnv) stateDir() string { return filepath.Join(e.dir, "state.wal") }

// shut closes the held stack, if any.
func (e *dagEnv) shut() error {
	if e.st == nil {
		return nil
	}
	st := e.st
	e.st = nil
	if err := st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// reopen swaps the held stack for one bound to the traced or plain client.
func (e *dagEnv) reopen(traced bool) error {
	if err := e.shut(); err != nil {
		return err
	}
	st, err := e.host.open(e.dir, e.sources, e.vars, traced)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	e.st = st
	return nil
}

// timeN calls fn n times and returns the median duration in milliseconds.
func timeN(n int, fn func() error) (float64, error) {
	var s samples
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		s.add(time.Since(t0))
	}
	return median(s), nil
}

// directReps is how often each direct single-layer call is repeated.
const directReps = 5

// expandSources loads and expands sources the way workspace.New does.
func expandSources(sources map[string]string) (*config.Module, map[string]eval.Value, *config.Expansion, error) {
	module, diags := config.Load(sources)
	if diags.HasErrors() {
		return nil, nil, nil, diags
	}
	vars := map[string]eval.Value{}
	for name, decl := range module.Variables {
		if decl.HasDefault {
			vars[name] = decl.Default
		}
	}
	ex, diags := config.Expand(module, vars, nil)
	if diags.HasErrors() {
		return nil, nil, nil, diags
	}
	return module, vars, ex, nil
}

// measureConfig times config.Load and config.Expand on the workload's sources.
func measureConfig(r *run, sources map[string]string) (*config.Expansion, error) {
	module, vars, ex, err := expandSources(sources)
	if err != nil {
		return nil, err
	}
	loadMs, err := timeN(directReps, func() error {
		if _, diags := config.Load(sources); diags.HasErrors() {
			return diags
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	expandMs, err := timeN(directReps, func() error {
		if _, diags := config.Expand(module, vars, nil); diags.HasErrors() {
			return diags
		}
		return nil
	})
	r.set("config.load_ms", loadMs)
	r.set("config.expand_ms", expandMs)
	return ex, err
}

// computeFull times plan.Compute with no cache and no refresh.
func computeFull(ctx context.Context, ex *config.Expansion, prior *state.State) (float64, *plan.Plan, error) {
	var last *plan.Plan
	t, err := timeN(directReps, func() error {
		p, diags := plan.Compute(ctx, ex, prior, plan.Options{})
		if diags.HasErrors() {
			return diags
		}
		last = p
		return nil
	})
	return t, last, err
}

// measurePlanScale reports how full-plan time grows with size: log4 of
// plan.Compute time at N instances over N/4, so 1.0 is linear and 2.0 is
// quadratic. The quarter-size graph is converged on an in-process sim.
func measurePlanScale(ctx context.Context, r *run, cfg runConfig, decls int, fullMs float64) error {
	small, _ := dagSources(decls/4, cfg.seed)
	sim := newSim()
	st, err := cloudless.Open(cloudless.Options{Sources: small, Cloud: sim})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := deploy(ctx, st); err != nil {
		return err
	}
	_, _, ex, err := expandSources(small)
	if err != nil {
		return err
	}
	smallMs, _, err := computeFull(ctx, ex, st.DB().Snapshot())
	if err != nil {
		return err
	}
	if smallMs > 0 && fullMs > 0 {
		r.set("plan.scale_exp", math.Log(fullMs/smallMs)/math.Log(4))
	}
	return nil
}

// measureStatedb times the WAL engine at the workload's state size: reopen
// of the workload's own directory (the stack must be closed), and
// back-to-back one-record durable commits on a copy seeded from snapshot.
func measureStatedb(ctx context.Context, r *run, cfg runConfig, stateDir string, snapshot *state.State) error {
	openMs, err := timeN(directReps, func() error {
		eng, err := statedb.NewEngine(statedb.BackendWAL, nil, statedb.EngineOptions{Dir: stateDir})
		if err != nil {
			return err
		}
		return statedb.OpenEngine(eng, statedb.ResourceLock).Close()
	})
	if err != nil {
		return err
	}
	r.set("statedb.open_ms", openMs)
	r.set("statedb.dir_bytes", float64(dirBytes(stateDir)))

	dir, err := os.MkdirTemp(cfg.dir, "commit-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := statedb.NewEngine(statedb.BackendWAL, snapshot, statedb.EngineOptions{Dir: dir})
	if err != nil {
		return err
	}
	db := statedb.OpenEngine(eng, statedb.ResourceLock)
	defer db.Close()
	addrs := snapshot.Addrs()
	if len(addrs) == 0 {
		return fmt.Errorf("statedb commit bench: empty snapshot")
	}
	const commits = 200
	var s, grew samples
	start := time.Now()
	for i := 0; i < commits; i++ {
		rs := snapshot.Get(addrs[i%len(addrs)]).Clone()
		rs.UpdatedAt = time.Now()
		before := dirBytes(dir)
		t0 := time.Now()
		txn := db.Begin("bench")
		if err := txn.Lock(ctx, rs.Addr); err != nil {
			return err
		}
		if err := txn.Put(rs); err != nil {
			return err
		}
		if _, err := txn.Commit(); err != nil {
			return err
		}
		s.add(time.Since(t0))
		// A commit that triggered compaction shrinks the directory; the
		// median is the plain append.
		grew = append(grew, float64(dirBytes(dir)-before))
	}
	elapsed := time.Since(start)
	r.set("statedb.commit1_ms", median(s))
	r.set("statedb.commits_per_s", commits/elapsed.Seconds())
	r.set("statedb.bytes_per_commit", median(grew))
	return nil
}

// measureProviderGet compares one fresh read through the provider runtime
// with the same read on the sim directly: the runtime's own cost per call.
func measureProviderGet(ctx context.Context, r *run) error {
	sim := newSim()
	res, err := sim.Create(ctx, cloud.CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Principal: "bench",
		Attrs: map[string]eval.Value{"name": eval.String("probe"), "cidr_block": eval.String("10.0.0.0/16")},
	})
	if err != nil {
		return err
	}
	const reads = 2000
	perCallUs := func(cl cloud.Interface, ctx context.Context) (float64, error) {
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			if _, err := cl.Get(ctx, res.Type, res.ID); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(time.Microsecond) / reads, nil
	}
	simUs, err := perCallUs(sim, ctx)
	if err != nil {
		return err
	}
	rtUs, err := perCallUs(provider.New(sim, provider.Options{}), provider.WithFresh(ctx))
	if err != nil {
		return err
	}
	r.set("cloud.sim_get_us", simUs)
	r.set("provider.get_us", rtUs)
	return nil
}

// addStats folds what one provider runtime did between two snapshots of its
// counters into total.
func addStats(total *provider.Stats, before, after provider.Stats) {
	total.Calls += after.Calls - before.Calls
	total.Retries += after.Retries - before.Retries
	total.Coalesced += after.Coalesced - before.Coalesced
	total.CacheHits += after.CacheHits - before.CacheHits
	total.CacheMisses += after.CacheMisses - before.CacheMisses
}

// providerPerOp reports what the provider runtimes did, per operation.
func providerPerOp(r *run, total provider.Stats, ops int) {
	n := float64(ops)
	r.set("provider.calls", float64(total.Calls)/n)
	r.set("provider.coalesced", float64(total.Coalesced)/n)
	r.set("provider.retries", float64(total.Retries)/n)
	if reads := total.CacheHits + total.CacheMisses; reads > 0 {
		r.set("provider.cache_hit_frac", float64(total.CacheHits)/float64(reads))
	}
}

// cloudWork is what the traced pass saw at the cloud boundary during one
// stretch of work.
type cloudWork struct {
	busy   time.Duration // union of in-flight client-side intervals
	calls  int64         // sim-admitted control-plane calls
	rttsUs []float64
}

// tap starts observing the cloud boundary; the returned func stops and
// reports. Only the traced pass calls it.
func (h *cloudHost) tap() func() cloudWork {
	h.calls.take()
	before := h.sim.Metrics().Calls
	return func() cloudWork {
		iv := h.calls.take()
		return cloudWork{busy: unionDuration(iv), calls: h.sim.Metrics().Calls - before, rttsUs: durationsUs(iv)}
	}
}

// batchItemsPerCall is the mean item count of the batched calls made
// between two sim metric snapshots.
func batchItemsPerCall(before, after cloud.Metrics) float64 {
	if calls := after.BatchCalls - before.BatchCalls; calls > 0 {
		return float64(after.BatchItems-before.BatchItems) / float64(calls)
	}
	return 0
}
