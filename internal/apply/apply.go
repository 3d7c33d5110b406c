// Package apply executes plans against a cloud: a concurrency-bounded
// parallel walk over the plan graph with pluggable scheduling (the baseline
// FIFO graph walk vs the §3.3 critical-path-first scheduler) and value
// propagation so attributes referencing freshly-created resources resolve
// to real IDs. Retry, backoff, and adaptive cloud concurrency live in the
// provider runtime (internal/provider), which every operation routes
// through — the walk's Concurrency only governs graph-ordering parallelism.
// It is the only code that writes a plan to the cloud: applies, destroys,
// rollbacks and drift reverts are all plans it runs.
package apply

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/events"
	"cloudless/internal/graph"
	"cloudless/internal/health"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/schema"
	"cloudless/internal/state"
	"cloudless/internal/telemetry"
)

// Scheduler selects the ready-node ordering policy.
type Scheduler int

// Schedulers.
const (
	// FIFOScheduler mimics today's best-effort graph walk: ready nodes run
	// in address order with no cost model.
	FIFOScheduler Scheduler = iota
	// CriticalPathScheduler prioritizes ready nodes by the length of the
	// longest remaining dependency chain hanging off them.
	CriticalPathScheduler
)

// String names the scheduler.
func (s Scheduler) String() string {
	if s == CriticalPathScheduler {
		return "critical-path"
	}
	return "fifo"
}

// Options configure an apply.
type Options struct {
	// Concurrency bounds simultaneous cloud operations (default 10, the
	// same default Terraform uses).
	Concurrency int
	Scheduler   Scheduler
	// Principal is recorded in the cloud activity log.
	Principal string
	// ContinueOnError keeps independent branches running after a failure.
	ContinueOnError bool
	// Journal, when set, makes the apply crash-safe: a begin record is
	// fsynced before every cloud call, and creates carry idempotency keys
	// derived from the journal's run ID so a crashed run's retry never
	// duplicates.
	Journal *Journal
	// Guard, when set, enables health-gated execution (DESIGN.md S24):
	// every create/update is probed until ready before its op counts as
	// done and dependents unblock, and a per-run/per-region failure fuse
	// stops admitting new ops in a domain that has failed too much.
	Guard *GuardConfig
	// Wave labels this execution's events on the bus ("canary", "main",
	// "rollback"); empty means the whole changeset runs as one wave ("all").
	Wave string

	// idemPrefix seeds per-op idempotency keys; set by Apply from the
	// journal's run ID, or generated fresh so even journal-less applies get
	// replay-safe creates (a transport error mid-create retried by the
	// provider runtime is the same in-doubt problem at smaller scale).
	idemPrefix string
	// healthWaitNs accumulates readiness-probe wait across ops; set by
	// Apply.
	healthWaitNs *int64
}

// GuardConfig configures health-gated execution.
type GuardConfig struct {
	// Probe bounds the per-resource readiness wait.
	Probe health.ProbeOptions
	// MaxFailures and MaxFailureFraction are the fuse trip thresholds,
	// applied per failure domain (the whole run, and each region). Zero
	// means the health package defaults (3 failures / 0.5 of the domain's
	// planned ops).
	MaxFailures        int
	MaxFailureFraction float64
	// Fuse, when set, is used instead of building one from the thresholds.
	// The canary orchestration in internal/guard shares one fuse across
	// waves so failure counts accumulate over the whole changeset.
	Fuse *health.Fuse
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Concurrency <= 0 {
		out.Concurrency = 10
	}
	if out.Principal == "" {
		out.Principal = "cloudless"
	}
	return out
}

// Result summarizes an apply.
type Result struct {
	State  *state.State
	Report *graph.WalkReport
	// Applied counts the changes that completed; a replace is one.
	Applied int
	Retries int
	Elapsed time.Duration
	// Outputs holds evaluated root outputs; nil for a plan without a value
	// store (destroy, rollback, drift revert), which leaves them alone.
	Outputs map[string]eval.Value
	// Errors by address.
	Errors map[string]error

	// Guarded-apply accounting (zero values when Guard is off).
	//
	// HealthWait is the total time spent in readiness probes; GateFailures
	// counts ops whose resource never turned ready despite the API ACK;
	// FuseTripped lists failure domains whose circuit breaker opened.
	HealthWait   time.Duration
	GateFailures int
	FuseTripped  []string
	// RolledBack lists the addresses reverted by the auto-rollback, and
	// Reverted reports that the rollback completed cleanly — both set by
	// the orchestration in internal/guard, never by Apply itself.
	RolledBack []string
	Reverted   bool
}

// Err folds failures into one error, deterministically: addresses are
// folded in sorted order with a count, so CLI output and test assertions
// are stable run-to-run.
func (r *Result) Err() error {
	if r.Report != nil {
		return r.Report.Err()
	}
	if len(r.Errors) == 0 {
		return nil
	}
	addrs := make([]string, 0, len(r.Errors))
	for a := range r.Errors {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	first := r.Errors[addrs[0]]
	if len(addrs) == 1 {
		return fmt.Errorf("1 operation failed: %s: %w", addrs[0], first)
	}
	return fmt.Errorf("%d operations failed (first: %s: %s)", len(addrs), addrs[0], first)
}

// run is what one Apply's operations share, guarded by mu: the state it
// builds, and ids, which maps each old cloud ID this run created a
// successor for — a replaced resource's, or the former ID a literal create
// carries — to the new one.
type run struct {
	cl    cloud.Interface
	p     *plan.Plan
	o     Options
	mu    sync.Mutex
	state *state.State
	ids   map[string]string
}

// Apply executes the plan and returns the new state. The returned state
// reflects every operation that completed, even when some failed — exactly
// like real IaC engines, partial progress is recorded. A plan that replaces
// anything walks twice: its destroy wave (destroyWave) first, then the
// forward walk, where a replace is the create of its second half.
func Apply(ctx context.Context, cl cloud.Interface, p *plan.Plan, opts Options) *Result {
	o := (&opts).withDefaults()
	start := time.Now()

	// All cloud I/O goes through the provider runtime: callers that hand us
	// a bare simulator or HTTP client get one wrapped on the spot with the
	// default retry policy; a runtime handed down from the facade is used
	// as-is, so its retry policy and AIMD window are shared across layers.
	cl = provider.New(cl, provider.Options{})

	newState := p.PriorState.Clone()
	var retries int64

	res := &Result{State: newState, Errors: map[string]error{}}

	// Idempotency keys: the journal's run ID when journaling (stable across
	// crash and recovery), a fresh run ID otherwise.
	if o.Journal != nil {
		o.idemPrefix = o.Journal.Meta().ID
	} else if o.idemPrefix == "" {
		o.idemPrefix = fmt.Sprintf("run-%d", time.Now().UnixNano())
	}

	// Event bus: every lifecycle transition below is published for live
	// consumers (Stack.Subscribe, -watch, the flight recorder). A nil bus
	// makes each Publish a no-op, so the unwatched hot path stays clean.
	bus := events.FromContext(ctx)
	wave := o.Wave
	if wave == "" {
		wave = "all"
	}
	waveOps := p.Creates + p.Updates + p.Replaces + p.Deletes
	bus.Publish(events.Event{Kind: "apply.wave_start", Run: o.idemPrefix,
		Wave: wave, N: int64(waveOps)})

	// Guarded mode: every op reports into the fuse, and the walk consults
	// it before admitting new ops. The fuse is usually built here from the
	// plan's per-domain op counts; the canary orchestration passes a shared
	// one spanning all waves.
	var fuse *health.Fuse
	var healthWait int64
	if o.Guard != nil {
		o.healthWaitNs = &healthWait
		fuse = o.Guard.Fuse
		if fuse == nil {
			reg := telemetry.FromContext(ctx).Metrics()
			fuse = health.NewFuse(health.FuseOptions{
				MaxFailures:        o.Guard.MaxFailures,
				MaxFailureFraction: o.Guard.MaxFailureFraction,
				OnTrip: func(domain string) {
					reg.Counter("apply.fuse_trips", "domain", domain).Inc()
					bus.Publish(events.Event{Kind: "apply.fuse_trip",
						Run: o.idemPrefix, Domain: domain})
				},
			})
			SeedFuse(fuse, p)
		}
	}
	r := &run{cl: cl, p: p, o: o, state: newState, ids: map[string]string{}}

	// Telemetry: one span for the whole execution, one per resource
	// operation, with the scheduler queue-wait vs execute split recorded as
	// attributes. Everything below is a no-op when no recorder rides ctx.
	rec := telemetry.FromContext(ctx)
	execCtx, execSpan := telemetry.StartSpan(ctx, "apply.execute")
	execSpan.SetAttr("scheduler", o.Scheduler.String())
	execSpan.SetAttr("concurrency", o.Concurrency)
	execSpan.SetAttr("operations", p.Graph.Len())
	var readyMu sync.Mutex
	readyAt := map[string]time.Time{}
	spanByAddr := map[string]*telemetry.Span{}
	walkOptions := func(q *plan.Plan) graph.WalkOptions {
		wo := graph.WalkOptions{Concurrency: o.Concurrency, ContinueOnError: o.ContinueOnError}
		if o.Scheduler == CriticalPathScheduler {
			if levels, _, err := q.Graph.CriticalPath(q.Costs()); err == nil {
				wo.Priority = func(addr string) float64 { return float64(levels[addr]) }
			}
		}
		if fuse != nil {
			wo.Admit = func(addr string) bool {
				ch := q.Changes[addr]
				if ch == nil || ch.Action == plan.ActionNoop {
					return true
				}
				return fuse.Allow(changeDomains(ch)...)
			}
		}
		if rec != nil {
			wo.OnReady = func(node string) {
				now := rec.Now()
				readyMu.Lock()
				readyAt[node] = now
				readyMu.Unlock()
			}
		}
		return wo
	}

	// runOp is one node of either walk: span, events, the cloud op, fuse
	// accounting.
	runOp := func(addr string, ch *plan.Change) error {
		if ch == nil {
			return fmt.Errorf("apply: no change for %s", addr)
		}
		opCtx, sp := telemetry.StartSpan(execCtx, "apply.op")
		opCtx, opRetries := provider.WithRetryCounter(opCtx)
		opStart := time.Now()
		if ch.Action != plan.ActionNoop {
			bus.Publish(events.Event{Kind: "apply.op_begin", Run: o.idemPrefix,
				Wave: wave, Addr: addr, Type: ch.Type, Action: ch.Action.String()})
		}
		if sp != nil {
			sp.SetAttr("addr", addr)
			sp.SetAttr("action", ch.Action.String())
			sp.SetAttr("type", ch.Type)
			sp.SetAttr("scheduler", o.Scheduler.String())
			readyMu.Lock()
			ready, ok := readyAt[addr]
			readyMu.Unlock()
			if ok {
				sp.SetAttr("queue_wait_ms", durMillis(sp.StartTime().Sub(ready)))
			}
		}
		err := r.applyChange(opCtx, ch)
		atomic.AddInt64(&retries, opRetries.Load())
		if ch.Action != plan.ActionNoop {
			ev := events.Event{Kind: "apply.op_done", Run: o.idemPrefix,
				Wave: wave, Addr: addr, Type: ch.Type, Action: ch.Action.String(),
				Retries: opRetries.Load(), Ms: durMillis(time.Since(opStart))}
			if err != nil {
				ev.Kind, ev.Err = "apply.op_fail", err.Error()
			}
			bus.Publish(ev)
		}
		if fuse != nil && ch.Action != plan.ActionNoop {
			if err != nil {
				fuse.Failure(changeDomains(ch)...)
			} else {
				fuse.Success(changeDomains(ch)...)
			}
		}
		if err != nil {
			r.mu.Lock()
			res.Errors[addr] = err
			r.mu.Unlock()
		}
		if sp != nil {
			sp.SetAttr("retries", opRetries.Load())
			sp.EndErr(err)
			sp.SetAttr("exec_ms", durMillis(sp.Duration()))
			readyMu.Lock()
			spanByAddr[addr] = sp
			readyMu.Unlock()
		}
		return err
	}

	waveRep := &graph.WalkReport{} // the destroy wave's outcome; empty without one
	fwdOpts := walkOptions(p)
	if dw := destroyWave(p); dw != nil {
		waveRep = dw.Graph.Walk(ctx, walkOptions(dw), func(addr string) error {
			return runOp(addr, dw.Changes[addr])
		})
		admit := fwdOpts.Admit
		fwdOpts.Admit = func(addr string) bool {
			// A replace whose delete did not run must not create a twin.
			st, waved := waveRep.Status[addr]
			return (!waved || st == graph.StatusDone) && (admit == nil || admit(addr))
		}
	}
	report := p.Graph.Walk(ctx, fwdOpts, func(addr string) error {
		ch := p.Changes[addr]
		if _, waved := waveRep.Status[addr]; waved {
			if ch.Action == plan.ActionDelete {
				return nil // the destroy wave did it
			}
			// The wave ran the replace's delete; its create runs here.
			half := *ch
			half.Action = plan.ActionCreate
			ch = &half
		}
		return runOp(addr, ch)
	})
	for addr, err := range waveRep.Errors { // a change whose delete failed failed
		if _, ok := report.Status[addr]; ok {
			report.Status[addr], report.Errors[addr] = graph.StatusFailed, err
		}
	}

	res.Report = report
	done, _, _ := report.Counts()
	res.Applied = done
	res.Retries = int(atomic.LoadInt64(&retries))
	res.Elapsed = time.Since(start)
	if fuse != nil {
		res.HealthWait = time.Duration(atomic.LoadInt64(&healthWait))
		res.FuseTripped = fuse.Tripped()
		for _, err := range res.Errors {
			if health.IsGateError(err) {
				res.GateFailures++
			}
		}
	}

	if rec != nil {
		markCriticalPath(p.Graph, spanByAddr)
		failed := len(res.Errors)
		execSpan.SetAttr("applied", done)
		execSpan.SetAttr("failed", failed)
		execSpan.SetAttr("retries", res.Retries)
		execSpan.End()
		reg := rec.Metrics()
		reg.Counter("apply.operations").Add(int64(done))
		reg.Counter("apply.retries").Add(int64(res.Retries))
		reg.Counter("apply.failures").Add(int64(failed))
	}

	// Evaluate root outputs against final values.
	if p.Values != nil {
		res.Outputs = map[string]eval.Value{}
		for name, spec := range p.Values.RootOutputs() {
			res.Outputs[name] = p.Values.OutputValue(spec)
			newState.Outputs[name] = res.Outputs[name]
		}
	}
	bus.Publish(events.Event{Kind: "apply.wave_finish", Run: o.idemPrefix,
		Wave: wave, N: int64(res.Applied), Retries: int64(res.Retries),
		Ms: durMillis(res.Elapsed)})
	return res
}

// destroyWave returns the deletes a plan with replaces runs before its
// forward walk, because a resource cannot go while something still
// references it: every replaced address, plus each pure delete that depends
// on one of them, directly or through another such delete. It is a
// delete-only plan from the planner's builder, so it runs dependents first.
// Nil when the plan replaces nothing.
func destroyWave(p *plan.Plan) *plan.Plan {
	if p.Replaces == 0 {
		return nil
	}
	users := map[string][]*plan.Change{} // resource address -> pure deletes naming it
	var queue []*plan.Change
	for _, ch := range p.Changes {
		switch ch.Action {
		case plan.ActionReplace:
			queue = append(queue, ch)
		case plan.ActionDelete:
			for _, dep := range ch.Deps {
				users[dep] = append(users[dep], ch)
			}
		}
	}
	var wave []*plan.Change
	seen := map[string]bool{}
	for len(queue) > 0 {
		ch := queue[0]
		queue = queue[1:]
		if seen[ch.Addr] {
			continue
		}
		seen[ch.Addr] = true
		// The delete of what exists, ordered by its recorded dependencies.
		del := &plan.Change{Addr: ch.Addr, Action: plan.ActionDelete, Type: ch.Type,
			Region: ch.Region, ID: ch.ID, Before: ch.Before, Deps: ch.Deps}
		if rs := p.PriorState.Get(ch.Addr); rs != nil {
			del.Region, del.Deps = rs.Region, rs.Dependencies
		}
		wave = append(wave, del)
		r := plan.ResourceAddrOf(ch.Addr)
		queue = append(queue, users[r]...)
		delete(users, r)
	}
	dw, _ := plan.New(p.PriorState, wave) // a cycle fails the wave's walk, which reports it
	return dw
}

// durMillis renders a duration as float milliseconds for span attributes.
func durMillis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// markCriticalPath walks backwards from the operation that finished last,
// at each step following the dependency that finished latest, and tags the
// chain's spans — so an exported trace visually answers "which chain bounded
// the makespan" (the E2 question) without re-running the scheduler.
func markCriticalPath(g *graph.Graph, spanByAddr map[string]*telemetry.Span) {
	var cur string
	var curEnd time.Time
	for addr, sp := range spanByAddr {
		if end := sp.EndTime(); cur == "" || end.After(curEnd) {
			cur, curEnd = addr, end
		}
	}
	for cur != "" {
		spanByAddr[cur].SetAttr("critical_path", true)
		next := ""
		var nextEnd time.Time
		for _, dep := range g.Dependencies(cur) {
			sp, ok := spanByAddr[dep]
			if !ok {
				continue
			}
			if end := sp.EndTime(); next == "" || end.After(nextEnd) {
				next, nextEnd = dep, end
			}
		}
		cur = next
	}
}

// changeDomains returns the failure domains an op belongs to: the whole run
// plus its region.
func changeDomains(ch *plan.Change) []string {
	attrs := ch.After
	if ch.Action == plan.ActionDelete {
		attrs = ch.Before
	}
	return health.Domains(regionOf(ch, attrs))
}

// SeedFuse registers the plan's non-noop op counts into the fuse's failure
// domains, so fractional trip thresholds are relative to what the run (and
// each region) actually planned to do.
func SeedFuse(f *health.Fuse, p *plan.Plan) {
	for _, ch := range p.Changes {
		if ch.Action == plan.ActionNoop {
			continue
		}
		for _, d := range changeDomains(ch) {
			f.Plan(d, 1)
		}
	}
}

// DefinitiveFailure reports whether an op error proves the cloud rejected
// the request without mutating anything — only those may be journaled as
// "fail". Everything else (transport faults, cancellation, simulated
// crashes) leaves the op in doubt, and recovery must re-check it.
func DefinitiveFailure(err error) bool {
	var ae *cloud.APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Code >= 400 && ae.Code < 500 && ae.Code != cloud.CodeThrottled && !ae.Retryable
}

// applyChange performs one delete, create or update — a replace arrives as
// its two halves; the provider runtime behind cl owns retries and backoff.
func (r *run) applyChange(ctx context.Context, ch *plan.Change) error {
	cl, o, j := r.cl, r.o, r.o.Journal
	switch ch.Action {
	case plan.ActionDelete:
		if j != nil {
			if err := j.Begin(OpRecord{Addr: ch.Addr, Action: ch.Action.String(),
				Type: ch.Type, Region: ch.Region, ID: ch.ID}); err != nil {
				return err
			}
		}
		if err := cl.Delete(ctx, ch.Type, ch.ID, o.Principal); err != nil && !cloud.IsNotFound(err) {
			if j != nil && DefinitiveFailure(err) {
				_ = j.Fail(ch.Addr, ch.Action.String(), err)
			}
			return err
		}
		// A 404 means already gone: deletion is idempotent.
		r.mu.Lock()
		r.state.Remove(ch.Addr)
		r.mu.Unlock()
		if j != nil {
			if err := j.Done(OpRecord{Addr: ch.Addr, Action: ch.Action.String(),
				Type: ch.Type, Region: ch.Region, ID: ch.ID}); err != nil {
				return err
			}
		}
		return nil

	case plan.ActionCreate, plan.ActionUpdate:
		attrs, err := r.attrsOf(ch)
		if err != nil {
			return err
		}
		rs, _ := schema.LookupResource(ch.Type)
		region := regionOf(ch, attrs)

		// Record the attribute values this operation sends on its span,
		// redacting schema-declared secrets with the same marker the display
		// path uses — a trace file must never leak what the terminal hides.
		if sp := telemetry.SpanFromContext(ctx); sp != nil {
			sp.SetAttr("region", region)
			for name, v := range attrs {
				if a := rs.Attr(name); a != nil && a.Sensitive {
					sp.SetAttr("attr."+name, telemetry.Redacted)
				} else {
					sp.SetAttr("attr."+name, v.String())
				}
			}
		}

		// The idempotency key is stable for this run+address: a crashed run
		// recovering under the same journal ID retries the create under the
		// same key and gets the original resource back.
		idemKey := o.idemPrefix + "/" + ch.Addr

		// For updates, compute the delta up front so the journal records
		// exactly what is about to be sent.
		var delta map[string]eval.Value
		if ch.Action == plan.ActionUpdate {
			// Only send genuinely-changed, non-computed attributes.
			delta = map[string]eval.Value{}
			for _, name := range ch.ChangedAttrs {
				a := rs.Attr(name)
				if a == nil || a.Computed {
					continue
				}
				v, ok := attrs[name]
				if !ok {
					continue
				}
				if before, had := ch.Before[name]; had && before.Equal(v) {
					continue // resolved to the same value: no change
				}
				delta[name] = v
			}
		}

		if j != nil {
			rec := OpRecord{Addr: ch.Addr, Action: ch.Action.String(), Type: ch.Type,
				Region: region, Deps: ch.Deps}
			if ch.Action == plan.ActionCreate {
				rec.IdemKey, rec.Attrs = idemKey, AttrsOut(attrs)
			} else {
				rec.ID, rec.Attrs = ch.ID, AttrsOut(delta)
			}
			if err := j.Begin(rec); err != nil {
				return err
			}
		}

		var created *cloud.Resource
		switch {
		case ch.Action == plan.ActionCreate:
			created, err = cl.Create(ctx, cloud.CreateRequest{
				Type: ch.Type, Region: region, Attrs: attrs, Principal: o.Principal,
				IdempotencyKey: idemKey,
			})
		case len(delta) == 0:
			created, err = cl.Get(ctx, ch.Type, ch.ID)
		default:
			created, err = cl.Update(ctx, cloud.UpdateRequest{
				Type: ch.Type, ID: ch.ID, Attrs: delta, Principal: o.Principal,
			})
		}
		if err != nil {
			if j != nil && DefinitiveFailure(err) {
				_ = j.Fail(ch.Addr, ch.Action.String(), err)
			}
			return err
		}

		// Health gate: the API ACKed, but in guarded mode the op is not done
		// until the resource turns ready. A resource that never does is a
		// failure — but it exists, so its identity is recorded in state and
		// journal below either way; the blast radius (dependents) is cut by
		// returning the gate error, and cleanup is the auto-rollback's job.
		var gateErr error
		if o.Guard != nil {
			waited, perr := health.Probe(ctx, cl, ch.Type, created.ID, o.Guard.Probe)
			if o.healthWaitNs != nil {
				atomic.AddInt64(o.healthWaitNs, int64(waited))
			}
			if sp := telemetry.SpanFromContext(ctx); sp != nil {
				sp.SetAttr("health_wait_ms", durMillis(waited))
			}
			if rec := telemetry.FromContext(ctx); rec != nil {
				rec.Metrics().Histogram("apply.health_wait_ms", "type", ch.Type).
					Observe(durMillis(waited))
			}
			gateEv := events.Event{Kind: "apply.gate_pass", Run: o.idemPrefix,
				Addr: ch.Addr, Type: ch.Type, ID: created.ID, Region: created.Region,
				Ms: durMillis(waited)}
			if perr != nil {
				var ge *health.GateError
				if errors.As(perr, &ge) {
					ge.Addr = ch.Addr
				}
				gateErr = perr
				gateEv.Kind, gateEv.Err = "apply.gate_fail", perr.Error()
			}
			events.FromContext(ctx).Publish(gateEv)
		}

		r.mu.Lock()
		prev := r.state.Get(ch.Addr)
		rsState := &state.ResourceState{
			Addr: ch.Addr, Type: ch.Type, ID: created.ID, Region: created.Region,
			Attrs: created.Attrs, Generation: created.Generation, Dependencies: ch.Deps,
			UpdatedAt: time.Now(),
		}
		if prev != nil && ch.Action == plan.ActionUpdate {
			rsState.CreatedAt = prev.CreatedAt
		} else {
			rsState.CreatedAt = time.Now()
		}
		r.state.Set(rsState)
		if ch.Action == plan.ActionCreate && ch.ID != "" {
			r.ids[ch.ID] = created.ID
		}
		r.mu.Unlock()

		if j != nil {
			if err := j.Done(OpRecord{Addr: ch.Addr, Action: ch.Action.String(),
				Type: ch.Type, Region: created.Region, ID: created.ID,
				Attrs: AttrsOut(created.Attrs), Deps: ch.Deps}); err != nil {
				return err
			}
		}
		if gateErr != nil {
			// State and journal know the resource; dependents must not run.
			return gateErr
		}
		if r.p.Values != nil {
			r.p.Values.Set(ch.Addr, eval.Object(created.Attrs))
		}
		return nil

	default:
		return nil
	}
}

// attrsOf resolves what a create or update sends. A configuration change
// evaluates its instance now that dependencies hold concrete values, with
// schema defaults filled in. A literal change sends its After attributes,
// with every old cloud ID this run has created a successor for swapped for
// the new one.
func (r *run) attrsOf(ch *plan.Change) (map[string]eval.Value, error) {
	var attrs map[string]eval.Value
	if ch.Instance == nil {
		r.mu.Lock()
		attrs = RemapIDs(ch.After, r.ids)
		r.mu.Unlock()
	} else {
		evaluated, diags := r.p.Values.EvaluateAttrs(ch.Instance)
		if diags.HasErrors() {
			return nil, fmt.Errorf("evaluate %s: %w", ch.Addr, diags.Err())
		}
		attrs = evaluated
		rs, _ := schema.LookupResource(ch.Type)
		for name, a := range rs.Attrs {
			if _, set := attrs[name]; !set && a.HasDefault {
				attrs[name] = a.Default
			}
		}
	}
	for name, v := range attrs {
		if !v.IsKnown() {
			return nil, fmt.Errorf("apply %s: attribute %q is still unknown after dependencies resolved", ch.Addr, name)
		}
		if v.IsNull() {
			delete(attrs, name)
		}
	}
	return attrs, nil
}

// RemapIDs returns a copy of attrs in which every string, alone or in a
// list, that is a key of ids is replaced by its value: references to
// resources that were re-created follow them to their new cloud IDs.
func RemapIDs(attrs map[string]eval.Value, ids map[string]string) map[string]eval.Value {
	out := make(map[string]eval.Value, len(attrs))
	for name, v := range attrs {
		out[name] = remapID(v, ids)
	}
	return out
}

func remapID(v eval.Value, ids map[string]string) eval.Value {
	switch v.Kind() {
	case eval.KindString:
		if id, ok := ids[v.AsString()]; ok {
			return eval.String(id)
		}
	case eval.KindList:
		items := make([]eval.Value, len(v.AsList()))
		for i, e := range v.AsList() {
			items[i] = remapID(e, ids)
		}
		return eval.ListOf(items)
	}
	return v
}

func regionOf(ch *plan.Change, attrs map[string]eval.Value) string {
	for _, name := range []string{"region", "location"} {
		if v, ok := attrs[name]; ok && v.Kind() == eval.KindString {
			return v.AsString()
		}
	}
	return ch.Region
}

// Destroy deletes everything in the state, dependents first: a delete-only
// plan from the planner's builder, applied.
func Destroy(ctx context.Context, cl cloud.Interface, prior *state.State, opts Options) *Result {
	changes := make([]*plan.Change, 0, prior.Len())
	for _, addr := range prior.Addrs() {
		rs := prior.Get(addr)
		changes = append(changes, &plan.Change{
			Addr: addr, Action: plan.ActionDelete, Type: rs.Type,
			Region: rs.Region, ID: rs.ID, Before: rs.Attrs, Deps: rs.Dependencies,
		})
	}
	p, _ := plan.New(prior, changes) // a cycle fails the walk, which reports it
	return Apply(ctx, cl, p, opts)
}
