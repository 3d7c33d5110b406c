package cloud

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudless/internal/eval"
	"cloudless/internal/schema"
	"cloudless/internal/telemetry"
)

// Options configure a simulator instance.
type Options struct {
	// TimeScale multiplies every modeled latency. 1.0 simulates realistic
	// provisioning times; tests and benchmarks use small values (e.g.
	// 0.0005 turns a 90 s VM creation into 45 ms). Zero disables modeled
	// latency entirely.
	TimeScale float64
	// FailureRate is the probability that any mutating call fails with a
	// retryable internal error (transient fault injection).
	FailureRate float64
	// Seed makes fault injection and jitter deterministic.
	Seed int64
	// QuotaPerTypeRegion bounds how many resources of one type may exist
	// in one region; 0 means the default of 10000.
	QuotaPerTypeRegion int
	// DisableRateLimit turns off API rate limiting.
	DisableRateLimit bool
	// RateLimitOverride, when > 0, replaces every provider's modeled rate.
	RateLimitOverride float64
	// EnforceConstraints controls deploy-time knowledge-base enforcement.
	// On by default (nil Options means enforce); the E6 experiment turns
	// validation off at the IaC layer, not here — the cloud always errors,
	// exactly like a real provider.
	EnforceConstraints bool
	// ReadLatency is the modeled latency of read calls before scaling.
	ReadLatency time.Duration
	// ReadinessDelay is the modeled gap between a create returning and the
	// resource turning ready (health lifecycle). Scaled by TimeScale; zero
	// means resources are ready the moment the create call returns.
	ReadinessDelay time.Duration
}

// DefaultOptions returns options suitable for tests: tiny time scale, no
// faults, constraints enforced.
func DefaultOptions() Options {
	return Options{
		TimeScale:          0,
		FailureRate:        0,
		Seed:               1,
		EnforceConstraints: true,
		ReadLatency:        50 * time.Millisecond,
	}
}

// Metrics counts control-plane traffic; the drift experiments (E7) read it.
type Metrics struct {
	Calls        int64
	Creates      int64
	Reads        int64
	Updates      int64
	Deletes      int64
	Lists        int64
	LogReads     int64
	Throttled    int64
	ThrottleWait time.Duration
	Failures     int64
	// BatchCalls counts batched control-plane calls — each admits (and is
	// rate-limited as) ONE call regardless of item count — and BatchItems
	// the items they carried. The SC experiment reads the ratio as its
	// calls-per-resource figure.
	BatchCalls int64
	BatchItems int64
	// IdemReplays counts creates answered from the idempotency index
	// instead of provisioning a duplicate (CR experiment).
	IdemReplays int64
	// HealthReads counts readiness probes (HG experiment).
	HealthReads int64
}

// Sim is the in-memory cloud simulator. It is safe for concurrent use.
type Sim struct {
	opts Options

	mu        sync.RWMutex
	store     map[string]map[string]*Resource // type -> id -> resource
	idCounter map[string]int
	ipCounter int
	log       []Event
	logSeq    int64
	rng       *rand.Rand
	metrics   Metrics

	limiters map[string]*rateLimiter // per provider
	kb       *schema.KnowledgeBase

	// injectThrottle fails the next N admitted calls with a fast 429 (plus
	// a Retry-After hint), independent of the token buckets — the PV bench
	// and conformance tests use it to script throttling bursts.
	injectThrottle int

	// idem maps idempotency keys to the identity provisioned under them,
	// so a replayed create returns the original resource (see
	// CreateRequest.IdempotencyKey). Real clouds expire these after hours;
	// the sim keeps them for its lifetime.
	idem map[string]idemEntry

	// health tracks per-resource readiness lifecycles, keyed type+"/"+id;
	// unhealthy holds pending InjectUnhealthy specs (see health.go).
	health    map[string]*healthRec
	unhealthy []UnhealthySpec

	// crash, when armed via InjectCrash, simulates the client process dying
	// at an op boundary: the callback fires (killing the journal, cancelling
	// the context) and the call returns ErrCrashed. CrashAfterOp fires after
	// the mutation is durable server-side — the realistic "response lost on
	// the wire" case that leaves an op in doubt.
	crash *crashInjection

	// telemetry, when attached, mirrors the traffic counters into a metrics
	// registry with per-type/op/region labels (E7 attribution). A registry
	// riding the call context takes precedence per call.
	telemetry *telemetry.Registry

	// notify is a broadcast channel for activity-log appends: WaitActivity
	// parks on it, appendEventLocked closes and clears it. Lazily created so
	// the common no-waiter case costs nothing.
	notify chan struct{}
}

var _ Interface = (*Sim)(nil)

// NewSim builds a simulator.
func NewSim(opts Options) *Sim {
	if opts.ReadLatency == 0 {
		opts.ReadLatency = 50 * time.Millisecond
	}
	if opts.QuotaPerTypeRegion == 0 {
		opts.QuotaPerTypeRegion = 10000
	}
	s := &Sim{
		opts:      opts,
		store:     map[string]map[string]*Resource{},
		idCounter: map[string]int{},
		rng:       rand.New(rand.NewSource(opts.Seed)),
		limiters:  map[string]*rateLimiter{},
		kb:        schema.DefaultKB(),
		idem:      map[string]idemEntry{},
		health:    map[string]*healthRec{},
	}
	for _, name := range schema.Providers() {
		p, _ := schema.LookupProvider(name)
		rate := p.APIRateLimit
		if opts.RateLimitOverride > 0 {
			rate = opts.RateLimitOverride
		}
		s.limiters[name] = newRateLimiter(rate, rate*2)
	}
	return s
}

// AttachTelemetry mirrors the simulator's traffic accounting (API calls,
// throttles, injected failures) into the given registry. Callers that thread
// a telemetry.Recorder through ctx get the same counters without attaching.
func (s *Sim) AttachTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.telemetry = reg
}

// TelemetryRegistry returns the attached registry, or nil when none is.
func (s *Sim) TelemetryRegistry() *telemetry.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.telemetry
}

// registryFor resolves the registry to count a call against: the context's
// recorder wins, then the attached registry, else nil (counting disabled).
func (s *Sim) registryFor(ctx context.Context) *telemetry.Registry {
	if rec := telemetry.FromContext(ctx); rec != nil {
		return rec.Metrics()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.telemetry
}

// InjectThrottles makes the next n admitted calls fail fast with a 429
// carrying a Retry-After hint, regardless of the token buckets.
func (s *Sim) InjectThrottles(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.injectThrottle += n
}

// idemEntry records what an idempotency key provisioned.
type idemEntry struct {
	typ string
	id  string
}

// CrashPoint identifies where in a mutating operation an injected crash
// fires.
type CrashPoint int

// Crash points. BeforeOp models the client dying before the request reaches
// the control plane (nothing mutated); AfterOp models the far nastier case
// where the mutation is durable server-side but the response is lost — the
// op is in doubt until recovery cross-checks the activity log.
const (
	CrashBeforeOp CrashPoint = iota
	CrashAfterOp
)

// ErrCrashed is returned by a mutating call interrupted by an injected
// crash. It is deliberately not an *APIError and not retryable: the
// simulated process is dead and cannot retry.
var ErrCrashed = fmt.Errorf("cloud: simulated client crash")

type crashInjection struct {
	point  CrashPoint
	afterN int // fires on the Nth mutating op reaching the point (1-based)
	fn     func()
}

// InjectCrash arms a one-shot crash at the given point of the Nth following
// mutating operation (create, update, or delete). When it fires, fn runs
// synchronously (the chaos harness uses it to kill the apply journal and
// cancel the apply context, simulating process death) and the operation
// returns ErrCrashed.
func (s *Sim) InjectCrash(point CrashPoint, afterN int, fn func()) {
	if afterN < 1 {
		afterN = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crash = &crashInjection{point: point, afterN: afterN, fn: fn}
}

// ClearCrash disarms any pending crash injection.
func (s *Sim) ClearCrash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crash = nil
}

// maybeCrash fires an armed crash injection if this mutating op reaches its
// point and countdown.
func (s *Sim) maybeCrash(point CrashPoint) error {
	s.mu.Lock()
	c := s.crash
	if c == nil || c.point != point {
		s.mu.Unlock()
		return nil
	}
	c.afterN--
	if c.afterN > 0 {
		s.mu.Unlock()
		return nil
	}
	s.crash = nil
	s.mu.Unlock()
	if c.fn != nil {
		c.fn()
	}
	return ErrCrashed
}

// Metrics returns a snapshot of the traffic counters.
func (s *Sim) Metrics() Metrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metrics
}

// ResetMetrics zeroes the traffic counters.
func (s *Sim) ResetMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = Metrics{}
}

// admit applies rate limiting and failure injection for one call, counting
// the call (and any throttle or injected failure) into the traffic metrics
// and, when telemetry is wired up, the metrics registry.
func (s *Sim) admit(ctx context.Context, op, typ string, mutating bool) error {
	prov, ok := schema.ProviderForType(typ)
	if !ok {
		return &APIError{Code: CodeInvalid, Op: op, Type: typ,
			Message: fmt.Sprintf("UnknownResourceType: no API for resource type %q", typ)}
	}
	s.mu.Lock()
	s.metrics.Calls++
	lim := s.limiters[prov.Name]
	throttled := s.injectThrottle > 0
	if throttled {
		s.injectThrottle--
		s.metrics.Throttled++
	}
	s.mu.Unlock()
	reg := s.registryFor(ctx)
	reg.Counter("cloud.api_calls", "op", op, "type", typ).Inc()
	if throttled {
		reg.Counter("cloud.throttled", "provider", prov.Name).Inc()
		return &APIError{Code: CodeThrottled, Op: op, Type: typ, Retryable: true,
			RetryAfter: 5 * time.Millisecond,
			Message:    "TooManyRequests: request rate exceeded; retry after backoff"}
	}

	if !s.opts.DisableRateLimit {
		waited, err := lim.Wait(ctx)
		if err != nil {
			reg.Counter("cloud.throttled", "provider", prov.Name).Inc()
			return &APIError{Code: CodeThrottled, Op: op, Type: typ, Retryable: true,
				Message: "TooManyRequests: request rate exceeded; canceled while throttled"}
		}
		if waited > 0 {
			s.mu.Lock()
			s.metrics.Throttled++
			s.metrics.ThrottleWait += waited
			s.mu.Unlock()
			reg.Counter("cloud.throttled", "provider", prov.Name).Inc()
			reg.Histogram("cloud.throttle_wait_ms", "provider", prov.Name).
				Observe(float64(waited) / float64(time.Millisecond))
		}
	}
	if mutating && s.opts.FailureRate > 0 {
		s.mu.Lock()
		fail := s.rng.Float64() < s.opts.FailureRate
		if fail {
			s.metrics.Failures++
		}
		s.mu.Unlock()
		if fail {
			reg.Counter("cloud.injected_failures", "type", typ).Inc()
			return &APIError{Code: CodeInternal, Op: op, Type: typ, Retryable: true,
				Message: "InternalError: an internal error occurred; please retry"}
		}
	}
	return nil
}

// sleepScaled models operation latency with ±20% deterministic jitter. It
// reports whether the caller's context expired mid-sleep: read paths abort
// on that (the caller hung up before the response), while mutating paths
// ignore it — a real control plane finishes a provisioning operation even
// if the client disconnects.
func (s *Sim) sleepScaled(ctx context.Context, d time.Duration) error {
	if s.opts.TimeScale <= 0 || d <= 0 {
		return ctx.Err()
	}
	s.mu.Lock()
	jitter := 0.8 + 0.4*s.rng.Float64()
	s.mu.Unlock()
	scaled := time.Duration(float64(d) * s.opts.TimeScale * jitter)
	if scaled <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(scaled)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func shortType(typ string) string {
	if i := strings.Index(typ, "_"); i >= 0 {
		return typ[i+1:]
	}
	return typ
}

// Create provisions a resource, enforcing the same constraints a real cloud
// enforces at deploy time.
func (s *Sim) Create(ctx context.Context, req CreateRequest) (*Resource, error) {
	rs, ok := schema.LookupResource(req.Type)
	if !ok {
		return nil, &APIError{Code: CodeInvalid, Op: "create", Type: req.Type,
			Message: fmt.Sprintf("UnknownResourceType: %q", req.Type)}
	}
	if rs.DataSource {
		return nil, &APIError{Code: CodeInvalid, Op: "create", Type: req.Type,
			Message: "InvalidOperation: data sources cannot be created"}
	}
	if err := s.admit(ctx, "create", req.Type, true); err != nil {
		return nil, err
	}
	if err := s.maybeCrash(CrashBeforeOp); err != nil {
		return nil, err
	}
	out, err := s.provisionOne(ctx, rs, req)
	if err != nil {
		return nil, err
	}
	if err := s.maybeCrash(CrashAfterOp); err != nil {
		return nil, err
	}
	return out, nil
}

// provisionOne runs the post-admission create path: validation, quota,
// identity reservation, provisioning latency, and the activity-log event.
// Create and BatchCreate share it; the batch path admits once per batch and
// then provisions items concurrently, the way real control planes do.
func (s *Sim) provisionOne(ctx context.Context, rs *schema.ResourceSchema, req CreateRequest) (*Resource, error) {
	prov, _ := schema.ProviderForType(req.Type)
	region := req.Region
	if region == "" {
		region = prov.DefaultRegion
	}
	if !contains(prov.Regions, region) {
		return nil, &APIError{Code: CodeInvalid, Op: "create", Type: req.Type,
			Message: fmt.Sprintf("InvalidLocation: region %q is not available for this subscription", region)}
	}

	s.mu.Lock()
	// Idempotency-key replay comes before validation: the original create
	// already owns the unique name this request carries, so validating the
	// replay against it would reject the retry of our own in-flight op.
	if req.IdempotencyKey != "" {
		if ent, ok := s.idem[req.IdempotencyKey]; ok {
			if r := s.store[ent.typ][ent.id]; r != nil {
				s.metrics.IdemReplays++
				out := r.Clone()
				s.mu.Unlock()
				s.registryFor(ctx).Counter("cloud.idem_replays", "type", req.Type).Inc()
				return out, nil
			}
			// The keyed resource was deleted since; fall through and
			// provision a fresh one under the same key.
			delete(s.idem, req.IdempotencyKey)
		}
	}
	if err := s.validateCreateLocked(rs, region, req.Attrs); err != nil {
		s.mu.Unlock()
		return nil, err
	}

	// Quota.
	if bucket := s.store[req.Type]; bucket != nil {
		n := 0
		for _, r := range bucket {
			if r.Region == region {
				n++
			}
		}
		if n >= s.opts.QuotaPerTypeRegion {
			s.mu.Unlock()
			return nil, &APIError{Code: CodeQuota, Op: "create", Type: req.Type,
				Message: fmt.Sprintf("QuotaExceeded: limit of %d %s per region reached", s.opts.QuotaPerTypeRegion, req.Type)}
		}
	}

	// Reserve the identity and make it visible in "creating" state.
	s.idCounter[req.Type]++
	id := fmt.Sprintf("%s-%08d", shortType(req.Type), s.idCounter[req.Type])
	now := time.Now()
	res := &Resource{
		ID:         id,
		Type:       req.Type,
		Region:     region,
		Attrs:      map[string]eval.Value{},
		CreatedAt:  now,
		UpdatedAt:  now,
		Generation: 1,
	}
	for k, v := range req.Attrs {
		res.Attrs[k] = v
	}
	for name, a := range rs.Attrs {
		if _, set := res.Attrs[name]; !set && a.HasDefault {
			res.Attrs[name] = a.Default
		}
	}
	s.fillComputedLocked(rs, res)
	if st := rs.Attr("state"); st != nil && st.Computed {
		res.Attrs["state"] = eval.String("creating")
	}
	if s.store[req.Type] == nil {
		s.store[req.Type] = map[string]*Resource{}
	}
	s.store[req.Type][id] = res
	// Start the readiness lifecycle: born provisioning, with any pending
	// unhealthiness injection stamped now so the outcome is decided by
	// creation order, not probe timing.
	hrec := &healthRec{}
	s.applyUnhealthyLocked(hrec, req.Type, region, stringAttr(req.Attrs, "name"))
	s.health[req.Type+"/"+id] = hrec
	// The idempotency claim is durable as soon as the identity is reserved:
	// a replay racing the provisioning sleep still finds the key.
	if req.IdempotencyKey != "" {
		s.idem[req.IdempotencyKey] = idemEntry{typ: req.Type, id: id}
	}
	s.metrics.Creates++
	s.mu.Unlock()
	s.registryFor(ctx).Counter("cloud.creates", "type", req.Type, "region", region).Inc()

	// Provisioning latency happens outside the lock: real clouds provision
	// many resources concurrently.
	s.sleepScaled(ctx, rs.ProvisionTime)

	s.mu.Lock()
	if st := rs.Attr("state"); st != nil && st.Computed {
		// A changed attribute is a new generation: a reader that saw
		// "creating" must not be told its copy is current.
		res.Attrs["state"] = eval.String("running")
		res.Generation++
	}
	res.UpdatedAt = time.Now()
	hrec.provisioned = true
	hrec.readyAt = time.Now().Add(s.scaledFlat(s.opts.ReadinessDelay))
	s.appendEventLocked(OpCreate, res, req.Principal, nil)
	out := res.Clone()
	s.mu.Unlock()
	return out, nil
}

// validateCreateLocked performs deploy-time validation: required attributes,
// allowed values, and the knowledge-base constraint rules.
func (s *Sim) validateCreateLocked(rs *schema.ResourceSchema, region string, attrs map[string]eval.Value) error {
	for _, name := range rs.RequiredAttrs() {
		v, ok := attrs[name]
		if !ok || v.IsNull() {
			return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
				Message: fmt.Sprintf("InvalidParameter: required property %q was not provided", name)}
		}
	}
	for name, v := range attrs {
		a := rs.Attr(name)
		if a == nil {
			return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
				Message: fmt.Sprintf("InvalidParameter: unknown property %q", name)}
		}
		if len(a.OneOf) > 0 && v.Kind() == eval.KindString && !contains(a.OneOf, v.AsString()) {
			return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
				Message: fmt.Sprintf("InvalidParameterValue: %q is not a valid value for %q", v.AsString(), name)}
		}
	}
	// Unique names per (type, region).
	if nameV, ok := attrs["name"]; ok && nameV.Kind() == eval.KindString {
		for _, r := range s.store[rs.Type] {
			if r.Region == region && r.Attr("name").Equal(nameV) {
				return &APIError{Code: CodeConflict, Op: "create", Type: rs.Type,
					Message: fmt.Sprintf("Conflict: a %s named %q already exists in %s", rs.Type, nameV.AsString(), region)}
			}
		}
	}
	if !s.opts.EnforceConstraints {
		return nil
	}
	// Reference resolution: region-scoped, like real clouds. A reference to
	// a resource in another region fails with "not found" — reproducing the
	// misleading error the paper's §3.5 example describes.
	for name, a := range rs.Attrs {
		if a.Semantic.Kind != schema.SemResourceRef {
			continue
		}
		v, ok := attrs[name]
		if !ok || v.IsNull() {
			continue
		}
		for _, id := range refIDs(v) {
			ref := s.findByIDLocked(id)
			if ref == nil || !a.Semantic.Accepts(ref.Type) || ref.Region != region {
				return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
					Message: fmt.Sprintf("ResourceNotFound: %s creation failed because specified %s %q is not found",
						prettyType(rs.Type), prettyAttrTarget(name), id)}
			}
		}
	}
	// Knowledge-base rules.
	for _, rule := range s.kb.RulesFor(rs.Type) {
		if err := s.checkRuleLocked(rule, rs, region, attrs); err != nil {
			return err
		}
	}
	return nil
}

func (s *Sim) checkRuleLocked(rule *schema.Rule, rs *schema.ResourceSchema, region string, attrs map[string]eval.Value) error {
	switch rule.Kind {
	case schema.RuleSameRegion:
		// Region-scoped reference resolution above already guarantees this;
		// nothing further to check at the cloud level.
		return nil
	case schema.RuleAttrRequiresValue:
		v, set := attrs[rule.Attr]
		if !set || v.IsNull() {
			return nil
		}
		actual, ok := attrs[rule.RequiresAttr]
		if !ok {
			if a := rs.Attr(rule.RequiresAttr); a != nil && a.HasDefault {
				actual = a.Default
			}
		}
		if !actual.Equal(rule.RequiresValue) {
			return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
				Message: fmt.Sprintf("InvalidParameterCombination: property %q may only be set when %q is %s (got %s)",
					rule.Attr, rule.RequiresAttr, rule.RequiresValue, actual)}
		}
		return nil
	case schema.RuleNoCIDROverlapWhenPeered:
		a := s.findByIDLocked(stringAttr(attrs, rule.PeerAttrA))
		b := s.findByIDLocked(stringAttr(attrs, rule.PeerAttrB))
		if a == nil || b == nil {
			return nil // reference errors reported elsewhere
		}
		for _, ca := range cidrList(a.Attr(rule.CIDRAttr)) {
			for _, cb := range cidrList(b.Attr(rule.CIDRAttr)) {
				if over, err := eval.PrefixesOverlap(ca, cb); err == nil && over {
					return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
						Message: fmt.Sprintf("AddressSpaceOverlap: cannot peer networks %s and %s: address space %s overlaps %s",
							a.ID, b.ID, ca, cb)}
				}
			}
		}
		return nil
	case schema.RuleCIDRWithinParent:
		child := stringAttr(attrs, rule.Attr)
		parent := s.findByIDLocked(stringAttr(attrs, rule.RefAttr))
		if child == "" || parent == nil {
			return nil
		}
		for _, pc := range cidrList(parent.Attr(rule.CIDRAttr)) {
			if over, err := eval.PrefixesOverlap(pc, child); err == nil && over {
				// Contained (or at least overlapping the parent space).
				return nil
			}
		}
		return &APIError{Code: CodeInvalid, Op: "create", Type: rs.Type,
			Message: fmt.Sprintf("InvalidAddressRange: range %q is not within the parent network's address space", child)}
	default:
		return nil
	}
}

func prettyType(typ string) string {
	return strings.ReplaceAll(shortType(typ), "_", " ")
}

func prettyAttrTarget(attr string) string {
	a := strings.TrimSuffix(strings.TrimSuffix(attr, "_ids"), "_id")
	return strings.ReplaceAll(a, "_", " ")
}

func refIDs(v eval.Value) []string {
	switch v.Kind() {
	case eval.KindString:
		if v.AsString() == "" {
			return nil
		}
		return []string{v.AsString()}
	case eval.KindList:
		var out []string
		for _, e := range v.AsList() {
			if e.Kind() == eval.KindString && e.AsString() != "" {
				out = append(out, e.AsString())
			}
		}
		return out
	default:
		return nil
	}
}

func stringAttr(attrs map[string]eval.Value, name string) string {
	if v, ok := attrs[name]; ok && v.Kind() == eval.KindString {
		return v.AsString()
	}
	return ""
}

func cidrList(v eval.Value) []string {
	return refIDs(v) // same shape: string or list of strings
}

func (s *Sim) findByIDLocked(id string) *Resource {
	if id == "" {
		return nil
	}
	for _, bucket := range s.store {
		if r, ok := bucket[id]; ok {
			return r
		}
	}
	return nil
}

// fillComputedLocked assigns cloud-side computed attributes.
func (s *Sim) fillComputedLocked(rs *schema.ResourceSchema, res *Resource) {
	for name, a := range rs.Attrs {
		if !a.Computed {
			continue
		}
		if name == "state" {
			continue // handled by the creation lifecycle
		}
		res.Attrs[name] = s.computedValueLocked(name, rs, res)
	}
}

func (s *Sim) computedValueLocked(name string, rs *schema.ResourceSchema, res *Resource) eval.Value {
	switch name {
	case "id":
		return eval.String(res.ID)
	case "arn":
		return eval.String(fmt.Sprintf("arn:sim:%s:%s:%s", rs.Provider, res.Region, res.ID))
	case "private_ip":
		s.ipCounter++
		return eval.String(fmt.Sprintf("10.%d.%d.%d", (s.ipCounter>>16)&0xff, (s.ipCounter>>8)&0xff, s.ipCounter&0xff+1))
	case "public_ip", "ip_address":
		s.ipCounter++
		return eval.String(fmt.Sprintf("52.%d.%d.%d", (s.ipCounter>>16)&0xff, (s.ipCounter>>8)&0xff, s.ipCounter&0xff+1))
	case "mac_address":
		s.ipCounter++
		return eval.String(fmt.Sprintf("02:00:00:%02x:%02x:%02x", (s.ipCounter>>16)&0xff, (s.ipCounter>>8)&0xff, s.ipCounter&0xff))
	case "dns_name", "endpoint", "fqdn", "domain_name":
		return eval.String(fmt.Sprintf("%s.%s.%s.sim.cloud", res.ID, res.Region, rs.Provider))
	case "names": // availability zones
		return eval.Strings(res.Region+"a", res.Region+"b", res.Region+"c")
	default:
		return eval.String(fmt.Sprintf("%s-%s", name, res.ID))
	}
}

// Get fetches a resource by type and ID.
func (s *Sim) Get(ctx context.Context, typ, id string) (*Resource, error) {
	if err := s.admit(ctx, "get", typ, false); err != nil {
		return nil, err
	}
	if err := s.sleepScaled(ctx, s.opts.ReadLatency); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.metrics.Reads++
	r := s.store[typ][id]
	var out *Resource
	if r != nil {
		out = r.Clone()
	}
	s.mu.Unlock()
	if out == nil {
		return nil, &APIError{Code: CodeNotFound, Op: "get", Type: typ, ID: id,
			Message: fmt.Sprintf("ResourceNotFound: %s %q does not exist", prettyType(typ), id)}
	}
	return out, nil
}

// Update mutates attributes in place.
func (s *Sim) Update(ctx context.Context, req UpdateRequest) (*Resource, error) {
	rs, ok := schema.LookupResource(req.Type)
	if !ok {
		return nil, &APIError{Code: CodeInvalid, Op: "update", Type: req.Type,
			Message: fmt.Sprintf("UnknownResourceType: %q", req.Type)}
	}
	if err := s.admit(ctx, "update", req.Type, true); err != nil {
		return nil, err
	}
	if err := s.maybeCrash(CrashBeforeOp); err != nil {
		return nil, err
	}
	s.mu.Lock()
	r := s.store[req.Type][req.ID]
	if r == nil {
		s.mu.Unlock()
		return nil, &APIError{Code: CodeNotFound, Op: "update", Type: req.Type, ID: req.ID,
			Message: fmt.Sprintf("ResourceNotFound: %s %q does not exist", prettyType(req.Type), req.ID)}
	}
	var changed []string
	for name, v := range req.Attrs {
		a := rs.Attr(name)
		if a == nil {
			s.mu.Unlock()
			return nil, &APIError{Code: CodeInvalid, Op: "update", Type: req.Type, ID: req.ID,
				Message: fmt.Sprintf("InvalidParameter: unknown property %q", name)}
		}
		if a.Computed {
			s.mu.Unlock()
			return nil, &APIError{Code: CodeInvalid, Op: "update", Type: req.Type, ID: req.ID,
				Message: fmt.Sprintf("InvalidParameter: property %q is read-only", name)}
		}
		if a.ForceNew {
			s.mu.Unlock()
			return nil, &APIError{Code: CodeConflict, Op: "update", Type: req.Type, ID: req.ID,
				Message: fmt.Sprintf("InvalidOperation: property %q cannot be changed after creation; the resource must be recreated", name)}
		}
		if len(a.OneOf) > 0 && v.Kind() == eval.KindString && !contains(a.OneOf, v.AsString()) {
			s.mu.Unlock()
			return nil, &APIError{Code: CodeInvalid, Op: "update", Type: req.Type, ID: req.ID,
				Message: fmt.Sprintf("InvalidParameterValue: %q is not a valid value for %q", v.AsString(), name)}
		}
		if !r.Attr(name).Equal(v) {
			changed = append(changed, name)
		}
	}
	// Validated whole before any write, so a rejected update changes
	// nothing; the generation moves with the attributes, under one lock.
	for name, v := range req.Attrs {
		r.Attrs[name] = v
	}
	r.Generation++
	sort.Strings(changed)
	s.metrics.Updates++
	s.mu.Unlock()

	s.sleepScaled(ctx, rs.UpdateTime)

	s.mu.Lock()
	r.UpdatedAt = time.Now()
	s.appendEventLocked(OpUpdate, r, req.Principal, changed)
	out := r.Clone()
	s.mu.Unlock()
	if err := s.maybeCrash(CrashAfterOp); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes a resource, refusing when dependents still reference it
// (real clouds' DependencyViolation behaviour, which is what forces IaC
// engines to destroy in reverse dependency order).
func (s *Sim) Delete(ctx context.Context, typ, id, principal string) error {
	rs, ok := schema.LookupResource(typ)
	if !ok {
		return &APIError{Code: CodeInvalid, Op: "delete", Type: typ,
			Message: fmt.Sprintf("UnknownResourceType: %q", typ)}
	}
	if err := s.admit(ctx, "delete", typ, true); err != nil {
		return err
	}
	if err := s.maybeCrash(CrashBeforeOp); err != nil {
		return err
	}
	s.mu.Lock()
	r := s.store[typ][id]
	if r == nil {
		s.mu.Unlock()
		return &APIError{Code: CodeNotFound, Op: "delete", Type: typ, ID: id,
			Message: fmt.Sprintf("ResourceNotFound: %s %q does not exist", prettyType(typ), id)}
	}
	if holder := s.referencedByLocked(id); holder != nil {
		s.mu.Unlock()
		return &APIError{Code: CodeConflict, Op: "delete", Type: typ, ID: id,
			Message: fmt.Sprintf("DependencyViolation: %s %q is in use by %s %q", prettyType(typ), id, prettyType(holder.Type), holder.ID)}
	}
	s.metrics.Deletes++
	s.mu.Unlock()

	s.sleepScaled(ctx, rs.DeleteTime)

	s.mu.Lock()
	delete(s.store[typ], id)
	delete(s.health, typ+"/"+id)
	s.appendEventLocked(OpDelete, r, principal, nil)
	s.mu.Unlock()
	if err := s.maybeCrash(CrashAfterOp); err != nil {
		return err
	}
	return nil
}

// referencedByLocked returns a resource that holds a reference to id.
func (s *Sim) referencedByLocked(id string) *Resource {
	for typ, bucket := range s.store {
		rs, ok := schema.LookupResource(typ)
		if !ok {
			continue
		}
		var refAttrs []string
		for name, a := range rs.Attrs {
			if a.Semantic.Kind == schema.SemResourceRef {
				refAttrs = append(refAttrs, name)
			}
		}
		if len(refAttrs) == 0 {
			continue
		}
		for _, r := range bucket {
			for _, name := range refAttrs {
				for _, ref := range refIDs(r.Attr(name)) {
					if ref == id {
						return r
					}
				}
			}
		}
	}
	return nil
}

// List returns resources of a type, optionally filtered by region, sorted
// by ID for determinism: the unbounded page.
func (s *Sim) List(ctx context.Context, typ, region string) ([]*Resource, error) {
	page, err := s.ListPage(ctx, typ, region, 0, "")
	if err != nil {
		return nil, err
	}
	return page.Resources, nil
}

// Activity returns events after the given sequence number. Activity-log
// reads are deliberately cheap: they bypass rate limiting, which is the
// §3.5 argument for log-native drift detection over API scanning.
func (s *Sim) Activity(ctx context.Context, afterSeq int64) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.LogReads++
	s.metrics.Calls++
	s.telemetry.Counter("cloud.log_reads").Inc()
	var out []Event
	for _, e := range s.log {
		if e.Seq > afterSeq {
			out = append(out, e)
		}
	}
	return out, nil
}

// LastSeq returns the newest activity sequence number.
func (s *Sim) LastSeq() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logSeq
}

// WaitActivity is the long-poll form of Activity: it blocks up to wait for
// at least one event past afterSeq, returning immediately when events are
// already available and (nil, nil) on a quiet timeout. Cancellation surfaces
// as ctx.Err(). Like Activity, waiting bypasses rate limiting.
func (s *Sim) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]Event, error) {
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		if s.logSeq > afterSeq {
			s.mu.Unlock()
			return s.Activity(ctx, afterSeq)
		}
		if s.notify == nil {
			s.notify = make(chan struct{})
		}
		ch := s.notify
		s.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
			return nil, nil
		case <-ch:
			timer.Stop()
		}
	}
}

func (s *Sim) appendEventLocked(op EventOp, r *Resource, principal string, changed []string) {
	if principal == "" {
		principal = "unknown"
	}
	s.logSeq++
	s.log = append(s.log, Event{
		Seq:       s.logSeq,
		Time:      time.Now(),
		Op:        op,
		Type:      r.Type,
		ID:        r.ID,
		Region:    r.Region,
		Principal: principal,
		Changed:   changed,
	})
	if s.notify != nil {
		close(s.notify)
		s.notify = nil
	}
}

// Count returns how many resources of a type exist (all regions).
func (s *Sim) Count(typ string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.store[typ])
}

// TotalResources returns the number of resources across all types.
func (s *Sim) TotalResources() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, bucket := range s.store {
		n += len(bucket)
	}
	return n
}

func contains(list []string, s string) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}
