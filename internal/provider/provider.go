// Package provider is the runtime dispatcher between the engine and the
// cloud control plane. Every layer that used to call cloud.Interface
// directly (apply, drift, plan refresh, diagnose via the facade) now routes
// through a Runtime, which owns the concerns those layers used to duplicate
// or skip:
//
//   - in-flight deduplication: identical concurrent reads (Get/List/
//     Activity) collapse into one upstream call whose result is shared by
//     every waiter (singleflight);
//   - a read-through cache keyed by (type, id) for Get and (type, region)
//     for List, invalidated by the runtime's own writes and by activity-log
//     events that flow through it;
//   - AIMD adaptive concurrency per provider: additive increase on success,
//     multiplicative decrease on 429s and latency spikes, replacing fixed
//     semaphores for cloud I/O;
//   - centralized retry with full-jitter exponential backoff and
//     Retry-After honoring — no other layer retries cloud calls.
//
// The Runtime satisfies cloud.Interface, so it is transparent to callers
// and composes with both the in-process simulator and the HTTP client.
// Everything is instrumented through internal/telemetry: queue depth,
// window size, cache hit and coalesce rates, retries.
package provider

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/events"
	"cloudless/internal/schema"
	"cloudless/internal/telemetry"
)

// Options configures a Runtime. The zero value gives production defaults.
type Options struct {
	// MaxRetries bounds attempts per logical call (default 4).
	MaxRetries int
	// RetryBase is the first backoff ceiling (default 50ms); attempt k
	// sleeps a uniform random duration in [0, min(RetryCap, RetryBase·2^k)).
	RetryBase time.Duration
	// RetryCap caps the backoff ceiling (default 2s).
	RetryCap time.Duration
	// CacheTTL bounds read-cache entry lifetime. 0 means the default of
	// 30s; negative disables the cache entirely.
	CacheTTL time.Duration
	// MaxInFlight is the AIMD window ceiling per provider (default 64).
	// The window starts wide (at the ceiling) and halves on congestion.
	MaxInFlight int
	// DisableCoalesce turns off in-flight read deduplication.
	DisableCoalesce bool
	// DisableAdaptive pins the window at MaxInFlight (no AIMD).
	DisableAdaptive bool
	// DisableJitter makes backoff deterministic exponential — the retry
	// policy the applier used to have. Kept as an ablation knob for the PV
	// experiment; production wants jitter.
	DisableJitter bool
	// IgnoreRetryAfter drops server backpressure hints (ablation knob).
	IgnoreRetryAfter bool
	// Clock supplies timestamps (latency EWMA, cache expiry). Defaults to
	// telemetry.System; tests inject a VirtualClock.
	Clock telemetry.Clock
	// Sleep, when non-nil, replaces the real backoff sleep. Tests use it
	// with a virtual clock to keep retry timing deterministic.
	Sleep func(ctx context.Context, d time.Duration) error
	// Registry receives runtime metrics when no recorder rides the call
	// context. May be nil.
	Registry *telemetry.Registry
	// Bus receives runtime signal events (throttles, AIMD gate resizes,
	// activity tail) when no bus rides the call context. May be nil.
	Bus *events.Bus
	// Seed seeds backoff jitter (default 1, deterministic).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 2 * time.Second
	}
	if o.CacheTTL == 0 {
		o.CacheTTL = 30 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.Clock == nil {
		o.Clock = telemetry.System
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Runtime dispatches cloud calls for one upstream endpoint. It is safe for
// concurrent use and satisfies cloud.Interface.
type Runtime struct {
	upstream cloud.Interface
	opts     Options

	flights flightGroup
	cache   *ttlCache

	gateMu sync.Mutex
	gates  map[string]*gate

	rngMu sync.Mutex
	rng   *rand.Rand

	// seen is the activity-log invalidation watermark: events at or below
	// it have already been applied to the cache.
	seen atomic.Int64

	stats statsCounters
}

var _ cloud.Interface = (*Runtime)(nil)

// New wraps upstream in a Runtime. If upstream already is a Runtime it is
// returned unchanged (opts are ignored), so layered wrapping — the facade
// wraps once, apply defensively wraps whatever it was handed — never stacks
// dispatchers.
func New(upstream cloud.Interface, opts Options) *Runtime {
	if rt, ok := upstream.(*Runtime); ok {
		return rt
	}
	opts = opts.withDefaults()
	return &Runtime{
		upstream: upstream,
		opts:     opts,
		cache:    newTTLCache(opts.CacheTTL),
		gates:    map[string]*gate{},
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
}

// Unwrap returns the upstream cloud implementation (the simulator or HTTP
// client the Runtime fronts). Unwrapping a non-Runtime returns it as-is.
func Unwrap(cl cloud.Interface) cloud.Interface {
	if rt, ok := cl.(*Runtime); ok {
		return rt.upstream
	}
	return cl
}

// freshKey marks contexts whose reads must bypass the cache lookup.
type freshKey struct{}

// WithFresh returns a context whose reads skip the cache and hit the cloud
// (results are still coalesced with concurrent identical reads, and still
// populate the cache). Drift scans and plan refresh use it: their whole
// point is observing out-of-band change, which no TTL heuristic can bound.
func WithFresh(ctx context.Context) context.Context {
	return context.WithValue(ctx, freshKey{}, true)
}

func isFresh(ctx context.Context) bool {
	v, _ := ctx.Value(freshKey{}).(bool)
	return v
}

// retryCounterKey carries a per-call retry counter through the context.
type retryCounterKey struct{}

// WithRetryCounter installs a counter that the Runtime increments once per
// retry attempt made under this context. The applier uses it to preserve
// per-op retry accounting now that retry lives here.
func WithRetryCounter(ctx context.Context) (context.Context, *atomic.Int64) {
	var n atomic.Int64
	return context.WithValue(ctx, retryCounterKey{}, &n), &n
}

func retryCounter(ctx context.Context) *atomic.Int64 {
	n, _ := ctx.Value(retryCounterKey{}).(*atomic.Int64)
	return n
}

// statsCounters are the always-on internal counters behind Stats().
type statsCounters struct {
	calls       atomic.Int64
	retries     atomic.Int64
	throttles   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64
}

// Stats is a point-in-time snapshot of runtime behaviour.
type Stats struct {
	Calls       int64              // upstream attempts issued
	Retries     int64              // attempts beyond the first
	Throttles   int64              // 429s observed
	CacheHits   int64              // reads served from cache
	CacheMisses int64              // reads that went upstream
	Coalesced   int64              // reads that joined an in-flight call
	Windows     map[string]float64 // AIMD window per provider gate
}

// Stats snapshots the runtime counters and per-gate windows.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Calls:       r.stats.calls.Load(),
		Retries:     r.stats.retries.Load(),
		Throttles:   r.stats.throttles.Load(),
		CacheHits:   r.stats.cacheHits.Load(),
		CacheMisses: r.stats.cacheMisses.Load(),
		Windows:     map[string]float64{},
	}
	r.gateMu.Lock()
	for k, g := range r.gates {
		s.Windows[k] = g.Window()
	}
	r.gateMu.Unlock()
	s.Coalesced = r.stats.coalesced.Load()
	return s
}

// registryFor resolves the metrics registry for one call: the context's
// recorder wins, then the configured registry, else nil (all telemetry
// types are nil-safe).
func (r *Runtime) registryFor(ctx context.Context) *telemetry.Registry {
	if rec := telemetry.FromContext(ctx); rec != nil {
		return rec.Metrics()
	}
	return r.opts.Registry
}

// busFor resolves the event bus for one call: the context's bus wins, then
// the configured bus, else nil (whose methods are all no-ops).
func (r *Runtime) busFor(ctx context.Context) *events.Bus {
	if b := events.FromContext(ctx); b != nil {
		return b
	}
	return r.opts.Bus
}

func (r *Runtime) now() time.Time { return r.opts.Clock.Now() }

// gateFor returns the AIMD gate for a resource type's provider.
func (r *Runtime) gateFor(typ string) (*gate, string) {
	name := "default"
	if p, ok := schema.ProviderForType(typ); ok {
		name = p.Name
	}
	r.gateMu.Lock()
	defer r.gateMu.Unlock()
	g, ok := r.gates[name]
	if !ok {
		g = newGate(float64(r.opts.MaxInFlight), r.opts.DisableAdaptive)
		r.gates[name] = g
	}
	return g, name
}

// backoff computes the sleep before retry attempt (attempt counts from 0 =
// first retry), honoring the server's Retry-After hint as a floor.
func (r *Runtime) backoff(attempt int, retryAfter time.Duration) time.Duration {
	ceil := r.opts.RetryBase << uint(attempt)
	if ceil > r.opts.RetryCap || ceil <= 0 {
		ceil = r.opts.RetryCap
	}
	d := ceil
	if !r.opts.DisableJitter {
		r.rngMu.Lock()
		d = time.Duration(r.rng.Float64() * float64(ceil))
		r.rngMu.Unlock()
	}
	if !r.opts.IgnoreRetryAfter && retryAfter > d {
		d = retryAfter
	}
	return d
}

func (r *Runtime) sleep(ctx context.Context, d time.Duration) error {
	if r.opts.Sleep != nil {
		return r.opts.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// call is the single chokepoint every upstream operation goes through: it
// acquires an AIMD slot per attempt, measures latency, classifies failures,
// and retries transient errors with full-jitter backoff.
func (r *Runtime) call(ctx context.Context, op, typ string, fn func(context.Context) (any, error)) (any, error) {
	g, gateKey := r.gateFor(typ)
	reg := r.registryFor(ctx)
	for attempt := 0; ; attempt++ {
		waitStart := r.now()
		if err := g.Acquire(ctx); err != nil {
			return nil, err
		}
		if wait := r.now().Sub(waitStart); wait > 0 {
			reg.Histogram("provider.acquire_wait_ms", "provider", gateKey).
				Observe(float64(wait) / float64(time.Millisecond))
		}
		reg.Gauge("provider.queue_depth", "provider", gateKey).Set(float64(g.Queued()))

		r.stats.calls.Add(1)
		start := r.now()
		v, err := fn(ctx)
		latency := r.now().Sub(start)
		g.Release()

		if err == nil {
			g.OnSuccess(latency, r.now())
			reg.Gauge("provider.window", "provider", gateKey).Set(g.Window())
			return v, nil
		}
		var retryAfter time.Duration
		if ae, ok := asAPIError(err); ok && ae.Code == cloud.CodeThrottled {
			r.stats.throttles.Add(1)
			retryAfter = ae.RetryAfter
			before := g.Window()
			g.OnCongestion(r.now())
			after := g.Window()
			reg.Gauge("provider.window", "provider", gateKey).Set(after)
			bus := r.busFor(ctx)
			bus.Publish(events.Event{Kind: "provider.throttled",
				Provider: gateKey, Action: op, Type: typ, Window: after})
			if after != before {
				bus.Publish(events.Event{Kind: "provider.gate_resize",
					Provider: gateKey, Window: after})
			}
		}
		if !cloud.IsRetryable(err) || ctx.Err() != nil {
			return nil, err
		}
		if attempt+1 >= r.opts.MaxRetries {
			return nil, fmt.Errorf("after %d attempts: %w", r.opts.MaxRetries, err)
		}
		r.stats.retries.Add(1)
		if n := retryCounter(ctx); n != nil {
			n.Add(1)
		}
		reg.Counter("provider.retries", "op", op, "type", typ).Inc()
		if err := r.sleep(ctx, r.backoff(attempt, retryAfter)); err != nil {
			return nil, err
		}
	}
}

func asAPIError(err error) (*cloud.APIError, bool) {
	var ae *cloud.APIError
	ok := errors.As(err, &ae)
	return ae, ok
}

// read is the shared Get/List/Activity path: cache lookup (unless fresh),
// then coalesced upstream call, then cache fill.
func (r *Runtime) read(ctx context.Context, op, typ, key string, cacheable bool, fn func(context.Context) (any, error)) (any, error) {
	reg := r.registryFor(ctx)
	if cacheable && !isFresh(ctx) {
		if v, ok := r.cache.get(key, r.now()); ok {
			r.stats.cacheHits.Add(1)
			reg.Counter("provider.cache_hits", "op", op).Inc()
			return v, nil
		}
	}
	if cacheable {
		r.stats.cacheMisses.Add(1)
		reg.Counter("provider.cache_misses", "op", op).Inc()
	}
	do := func(fctx context.Context) (any, error) {
		return r.call(fctx, op, typ, fn)
	}
	var (
		v   any
		err error
	)
	if r.opts.DisableCoalesce {
		v, err = do(ctx)
	} else {
		v, _, err = r.flights.Do(ctx, key, do, func() {
			r.stats.coalesced.Add(1)
			reg.Counter("provider.coalesced", "op", op).Inc()
		})
	}
	if err != nil {
		return nil, err
	}
	if cacheable {
		r.cache.put(key, v, r.now())
	}
	return v, nil
}

// Create implements cloud.Interface. The response write-throughs into the
// Get cache and invalidates the type's List entries.
func (r *Runtime) Create(ctx context.Context, req cloud.CreateRequest) (*cloud.Resource, error) {
	v, err := r.call(ctx, "create", req.Type, func(cctx context.Context) (any, error) {
		return r.upstream.Create(cctx, req)
	})
	if err != nil {
		return nil, err
	}
	res := v.(*cloud.Resource)
	r.cache.put(getKey(req.Type, res.ID), res.Clone(), r.now())
	r.cache.invalidateLists(req.Type)
	r.cache.invalidate(healthKey(req.Type, res.ID))
	return res, nil
}

// Get implements cloud.Interface.
func (r *Runtime) Get(ctx context.Context, typ, id string) (*cloud.Resource, error) {
	v, err := r.read(ctx, "get", typ, getKey(typ, id), true, func(cctx context.Context) (any, error) {
		return r.upstream.Get(cctx, typ, id)
	})
	if err != nil {
		return nil, err
	}
	return v.(*cloud.Resource).Clone(), nil
}

// Update implements cloud.Interface.
func (r *Runtime) Update(ctx context.Context, req cloud.UpdateRequest) (*cloud.Resource, error) {
	v, err := r.call(ctx, "update", req.Type, func(cctx context.Context) (any, error) {
		return r.upstream.Update(cctx, req)
	})
	if err != nil {
		return nil, err
	}
	res := v.(*cloud.Resource)
	r.cache.put(getKey(req.Type, res.ID), res.Clone(), r.now())
	r.cache.invalidateLists(req.Type)
	r.cache.invalidate(healthKey(req.Type, res.ID))
	return res, nil
}

// Delete implements cloud.Interface.
func (r *Runtime) Delete(ctx context.Context, typ, id, principal string) error {
	_, err := r.call(ctx, "delete", typ, func(cctx context.Context) (any, error) {
		return nil, r.upstream.Delete(cctx, typ, id, principal)
	})
	// Drop cache entries even on error: a failed delete may have partially
	// executed server-side, and a 404 means the entry is stale anyway.
	r.cache.invalidate(getKey(typ, id))
	r.cache.invalidateLists(typ)
	r.cache.invalidate(healthKey(typ, id))
	return err
}

// List implements cloud.Interface: the unbounded page.
func (r *Runtime) List(ctx context.Context, typ, region string) ([]*cloud.Resource, error) {
	page, err := r.ListPage(ctx, typ, region, 0, "")
	if err != nil {
		return nil, err
	}
	return page.Resources, nil
}

// Health implements cloud.Interface. Probes are cacheable reads: concurrent
// probes of the same resource coalesce, and a cached report serves casual
// readers. The guarded apply's probe loop runs under WithFresh — readiness
// is exactly the kind of out-of-band change no TTL can bound — which still
// coalesces and refills the cache for everyone else.
func (r *Runtime) Health(ctx context.Context, typ, id string) (*cloud.HealthReport, error) {
	v, err := r.read(ctx, "health", typ, healthKey(typ, id), true, func(cctx context.Context) (any, error) {
		return r.upstream.Health(cctx, typ, id)
	})
	if err != nil {
		return nil, err
	}
	rep := *v.(*cloud.HealthReport)
	return &rep, nil
}

// Activity implements cloud.Interface. Results are never cached (the log
// only grows, so a cached tail is immediately stale) but concurrent reads
// of the same cursor coalesce. Every event flowing through invalidates the
// cache entries it touches — this is what keeps cached reads coherent with
// out-of-band change: the drift watcher always reads the log before it
// issues Gets, so by the time it looks, the stale entries are gone.
func (r *Runtime) Activity(ctx context.Context, afterSeq int64) ([]cloud.Event, error) {
	key := "activity/" + strconv.FormatInt(afterSeq, 10)
	v, err := r.read(ctx, "activity", "", key, false, func(cctx context.Context) (any, error) {
		return r.upstream.Activity(cctx, afterSeq)
	})
	if err != nil {
		return nil, err
	}
	evs := v.([]cloud.Event)
	r.observeEvents(ctx, evs)
	out := make([]cloud.Event, len(evs))
	copy(out, evs)
	return out, nil
}

// WaitActivity implements cloud.Interface: it long-polls the upstream,
// bypassing the runtime's gates and cache — activity reads are deliberately
// cheap and a parked poll must not hold an AIMD slot. Events still flow
// through observeEvents, so a tail keeps the cache coherent exactly like
// Activity.
func (r *Runtime) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]cloud.Event, error) {
	evs, err := r.upstream.WaitActivity(ctx, afterSeq, wait)
	if err != nil {
		return nil, err
	}
	r.observeEvents(ctx, evs)
	return evs, nil
}

// observeEvents applies activity-log invalidation: every event newer than
// the watermark evicts the cache entries for its resource and type. The
// watermark only advances after the evictions run, so overlapping readers
// at worst invalidate twice, never skip. The watermark advance doubles as
// an exactly-once claim for the bus: the reader whose CAS lands owns the
// (cur, last] range and republishes exactly those events as cloud.activity
// — overlapping readers never produce duplicates, and since ranges abut,
// never leave gaps.
func (r *Runtime) observeEvents(ctx context.Context, evs []cloud.Event) {
	if len(evs) == 0 {
		return
	}
	seen := r.seen.Load()
	last := seen
	for _, e := range evs {
		if e.Seq <= seen {
			continue
		}
		r.cache.invalidate(getKey(e.Type, e.ID))
		r.cache.invalidateLists(e.Type)
		r.cache.invalidate(healthKey(e.Type, e.ID))
		if e.Seq > last {
			last = e.Seq
		}
	}
	for {
		cur := r.seen.Load()
		if last <= cur {
			return
		}
		if r.seen.CompareAndSwap(cur, last) {
			bus := r.busFor(ctx)
			if bus == nil {
				return
			}
			for _, e := range evs {
				if e.Seq <= cur || e.Seq > last {
					continue
				}
				bus.Publish(events.Event{Kind: "cloud.activity",
					CloudSeq: e.Seq, Time: e.Time.UnixNano(),
					Action: string(e.Op), Type: e.Type, ID: e.ID,
					Region: e.Region, Principal: e.Principal})
			}
			return
		}
	}
}
