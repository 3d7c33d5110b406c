// Package workspace is the hostable per-tenant core of cloudless (DESIGN.md
// S27). A Workspace owns everything one managed infrastructure needs — the
// expanded configuration, a golden-state engine, a policy engine, a drift
// watcher, a journal path, an event bus, a replan cache, and a provider
// runtime with its own AIMD gates and retry budget — so many
// workspaces can live in one process with per-tenant isolation by
// construction. The public cloudless.Stack facade is a thin single-workspace
// client of this core; cloudlessd's Manager hosts many of them.
package workspace

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/diagnose"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/events"
	"cloudless/internal/graph"
	"cloudless/internal/guard"
	"cloudless/internal/hcl"
	"cloudless/internal/plan"
	"cloudless/internal/policy"
	"cloudless/internal/provider"
	"cloudless/internal/reconcile"
	"cloudless/internal/rollback"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/telemetry"
	"cloudless/internal/validate"
)

// Config configures New. It is the one spelling of the workspace options:
// the facade's cloudless.Options is an alias of it, and cloudlessd's Manager
// fills one per tenant.
type Config struct {
	// Name identifies the workspace (tenant) in journals, events, and the
	// server API. Optional: single-workspace (facade) use leaves it empty;
	// the Manager sets it.
	Name string
	// Sources maps filename to CCL source. Exactly one of Sources or Dir
	// must be set.
	Sources map[string]string
	// Dir loads all .ccl files from a directory.
	Dir string
	// Vars supplies input variable values (plain Go values).
	Vars map[string]any
	// Cloud is the control plane to deploy onto. Required. A raw endpoint
	// (simulator or HTTP client) is wrapped in this workspace's own
	// provider runtime — separate AIMD gates, coalescing, and retry budget
	// per tenant; passing an existing *provider.Runtime shares it instead.
	Cloud cloud.Interface
	// Modules resolves module sources; defaults to directory resolution
	// relative to Dir when Dir is set.
	Modules config.ModuleResolver
	// InitialState seeds the golden-state database (e.g. loaded from a
	// state file); defaults to empty.
	InitialState *state.State
	// StateBackend selects the golden-state engine's durability: "memory"
	// (default; in-memory version chains only) or "wal" (the same engine
	// over an fsynced commit log in StateDir, with snapshot compaction and
	// crash recovery). Either way every commit keeps copy-on-write versions
	// per serial, so reads pinned at a serial stay consistent during
	// concurrent applies. "mvcc", a retired name, is read as "memory".
	StateBackend string
	// StateDir is the durable directory for the wal backend (required for
	// it; ignored otherwise). Existing durable contents win over
	// InitialState on reopen.
	StateDir string
	// JournalPath, when set, makes mutating operations crash-safe: every
	// apply, destroy, and rollback runs under a durable write-ahead journal
	// at this path (per-op begin/done records, each begin fsynced before
	// its cloud call). The journal is discarded after a fully successful
	// commit; if it survives — the process crashed or an op failed — the
	// next Plan or Apply recovers it first (see Recover).
	JournalPath string
	// Policies is CCL policy source enforced across the lifecycle.
	Policies string
	// Principal identifies this workspace's changes in cloud activity logs.
	Principal string
	// Telemetry, when set, records a lifecycle span for every operation
	// plus the per-layer spans and metrics the internals emit (apply ops,
	// lock waits, cloud API calls, plan scope). Nil disables
	// instrumentation at near-zero cost.
	Telemetry *telemetry.Recorder

	// Guarded-apply knobs (DESIGN.md S24). When GuardApplies is set, every
	// Apply runs health-gated: each create/update is probed until the
	// resource turns ready before dependents unblock, a per-run/per-region
	// failure fuse stops admitting ops into domains that fail too much, and
	// when resources never turn ready (or a fuse trips) the touched blast
	// radius is automatically reverted under the journal. The readiness
	// wait and the fuse thresholds are the health package's defaults.

	// GuardApplies turns guarded execution on.
	GuardApplies bool
	// GuardCanary in (0, 1) applies a dependency-closed canary fraction of
	// each changeset first and releases the rest only if the canary
	// converges healthy. Zero disables the canary split.
	GuardCanary float64
}

// ErrClosed is returned for lifecycle calls on a workspace that is closing
// or closed: Close drains in-flight operations but admits no new ones.
type ErrClosed struct{ Name string }

// Error implements error.
func (e *ErrClosed) Error() string {
	if e.Name == "" {
		return "cloudless: workspace is closed"
	}
	return "cloudless: workspace " + e.Name + " is closed"
}

// ErrPolicyDenied is returned when a plan-phase policy denies the apply.
type ErrPolicyDenied struct{ Message string }

// Error implements error.
func (e *ErrPolicyDenied) Error() string { return "cloudless: policy denied: " + e.Message }

// ErrJournalRecovered is returned by Apply, ExecuteRollback and ReconcileDrift
// when a crashed run's journal was found and recovered before the run could
// start. The recovery moved the golden state, so the plan, rollback plan or
// drift report in hand predates it — compute it again and retry.
type ErrJournalRecovered struct{ Report *apply.RecoverReport }

// Error implements error.
func (e *ErrJournalRecovered) Error() string {
	return "cloudless: recovered a crashed run's journal; the plan is stale — re-plan and retry"
}

// ApplyOptions tune Apply.
type ApplyOptions struct {
	Concurrency int
	// SkipPolicyCheck bypasses plan-phase policies.
	SkipPolicyCheck bool
	// OnEvent, when set, receives every ops-plane event published during
	// this apply, in order, on a dedicated goroutine; Apply drains the
	// queue before returning.
	OnEvent func(events.Event)
	// Guard overrides the workspace's guard configuration for this apply
	// only (nil = use the workspace default). The reconciler sets it so
	// auto-repairs always run guarded, even on workspaces that were
	// created without GuardApplies.
	Guard *guard.Options
}

// Workspace is one managed infrastructure: the unit of tenancy. All methods
// are safe for concurrent use; lifecycle methods fail with *ErrClosed once
// Close has begun.
type Workspace struct {
	name     string
	module   *config.Module
	resolver config.ModuleResolver

	// bindMu guards the variable bindings — vars and the policy engine's
	// view of them — and the expansion derived from them. bind is the only
	// writer and installs a fresh Expansion; an Expansion is never written
	// after that, so readers take the pointer once (ex) and use it unlocked.
	bindMu    sync.RWMutex
	vars      map[string]eval.Value
	expansion *config.Expansion

	cloudAPI    cloud.Interface
	db          *statedb.DB
	engine      *policy.Engine
	watcher     *drift.Watcher
	principal   string
	telemetry   *telemetry.Recorder
	journalPath string
	owner       journalOwner
	guardOpts   *guard.Options
	bus         *events.Bus
	replanCache *plan.ReplanCache

	// Draining close: beginOp/endOp track in-flight lifecycle operations;
	// Close flips closing, waits for the drained signal, then releases
	// resources exactly once.
	drain drainGate

	// The continuous reconciliation controller (nil unless enabled).
	recMu sync.Mutex
	rec   *reconcile.Controller
}

// New loads, expands, and binds a configuration into a workspace.
func New(cfg Config) (*Workspace, error) {
	if cfg.Cloud == nil {
		return nil, fmt.Errorf("cloudless: Options.Cloud is required")
	}
	var module *config.Module
	var diags hcl.Diagnostics
	switch {
	case cfg.Sources != nil:
		module, diags = config.Load(cfg.Sources)
	case cfg.Dir != "":
		module, diags = config.LoadDir(cfg.Dir)
		if cfg.Modules == nil {
			cfg.Modules = config.DirResolver{Root: cfg.Dir}
		}
	default:
		return nil, fmt.Errorf("cloudless: either Options.Sources or Options.Dir must be set")
	}
	if diags.HasErrors() {
		return nil, diags
	}

	vars := map[string]eval.Value{}
	for k, v := range cfg.Vars {
		vars[k] = eval.FromGo(v)
	}
	// Managed variables include declared defaults, so policy scale targets
	// work without the caller re-passing every default.
	for name, decl := range module.Variables {
		if _, given := vars[name]; !given && decl.HasDefault {
			vars[name] = decl.Default
		}
	}
	principal := cfg.Principal
	if principal == "" {
		if cfg.Name != "" {
			principal = cfg.Name
		} else {
			principal = "cloudless"
		}
	}

	engine, err := statedb.NewEngine(cfg.StateBackend, cfg.InitialState, statedb.EngineOptions{
		Dir: cfg.StateDir,
	})
	if err != nil {
		return nil, fmt.Errorf("cloudless: %w", err)
	}

	// All cloud access routes through one provider runtime per workspace; a
	// caller that passes an already-wrapped Runtime (e.g. another stack's
	// Cloud()) shares that one instead of stacking dispatchers.
	// The live ops plane: one bus per workspace. Every layer below publishes
	// into it; Subscribe, ApplyOptions.OnEvent, and cloudlessd's event feed
	// consume it. Publishing with no subscribers is nearly free.
	bus := events.NewBus(nil)

	popts := provider.Options{Bus: bus}
	if cfg.Telemetry != nil {
		popts.Registry = cfg.Telemetry.Metrics()
	}
	runtime := provider.New(cfg.Cloud, popts)

	w := &Workspace{
		name:        cfg.Name,
		module:      module,
		vars:        vars,
		resolver:    cfg.Modules,
		cloudAPI:    runtime,
		db:          statedb.OpenEngine(engine, statedb.ResourceLock),
		principal:   principal,
		telemetry:   cfg.Telemetry,
		journalPath: cfg.JournalPath,
		bus:         bus,
		replanCache: plan.NewReplanCache(),
	}
	w.drain.init()
	if cfg.JournalPath != "" {
		w.owner = make(journalOwner, 1)
	}
	if cfg.GuardApplies {
		w.guardOpts = &guard.Options{Canary: cfg.GuardCanary}
	}
	if sim, ok := provider.Unwrap(cfg.Cloud).(*cloud.Sim); ok && cfg.Telemetry != nil {
		// Route simulator counters (API calls, throttles, injected failures)
		// into the workspace's registry even for calls made without a
		// telemetry-carrying context.
		sim.AttachTelemetry(cfg.Telemetry.Metrics())
	}
	if err := w.reexpand(); err != nil {
		return nil, err
	}

	if cfg.Policies != "" {
		ps, diags := policy.ParsePolicies("policies.ccl", cfg.Policies)
		if diags.HasErrors() {
			return nil, diags
		}
		w.engine = policy.NewEngine(ps)
		for k, v := range vars {
			w.engine.Vars[k] = v
		}
	} else {
		w.engine = policy.NewEngine(nil)
	}
	return w, nil
}

// Name returns the workspace's name ("" for facade-opened workspaces).
func (w *Workspace) Name() string { return w.name }

// reexpand recomputes the expansion from the module and current vars. The
// caller holds bindMu (New, which nothing else can see yet, does not).
func (w *Workspace) reexpand() error {
	ex, diags := config.Expand(w.module, w.vars, w.resolver)
	if diags.HasErrors() {
		return diags
	}
	w.expansion = ex
	return nil
}

// ex returns the current expansion.
func (w *Workspace) ex() *config.Expansion {
	w.bindMu.RLock()
	defer w.bindMu.RUnlock()
	return w.expansion
}

// SetVar changes an input variable (e.g. applying a policy decision) and
// re-expands the configuration. A value the expansion rejects changes
// nothing.
func (w *Workspace) SetVar(name string, value any) error {
	if err := w.begin(); err != nil {
		return err
	}
	defer w.end()
	w.bindMu.Lock()
	defer w.bindMu.Unlock()
	return w.bind(map[string]eval.Value{name: eval.FromGo(value)})
}

// bind sets variables in the workspace and in the policy engine's view, then
// re-expands. When expansion rejects the new values the previous bindings (or
// their absence) come back on both sides, so a bad value cannot fail every
// later call with its own diagnostic. The caller holds bindMu.
func (w *Workspace) bind(vals map[string]eval.Value) error {
	prev := make(map[string]eval.Value, len(vals))
	for name, v := range vals {
		if old, ok := w.vars[name]; ok {
			prev[name] = old
		}
		w.vars[name], w.engine.Vars[name] = v, v
	}
	err := w.reexpand()
	if err != nil {
		for name := range vals {
			if old, ok := prev[name]; ok {
				w.vars[name], w.engine.Vars[name] = old, old
			} else {
				delete(w.vars, name)
				delete(w.engine.Vars, name)
			}
		}
	}
	return err
}

// Var reads a managed variable's current value.
func (w *Workspace) Var(name string) (any, bool) {
	w.bindMu.RLock()
	v, ok := w.vars[name]
	w.bindMu.RUnlock()
	if !ok {
		return nil, false
	}
	return eval.ToGo(v), true
}

// DB exposes the golden-state database (locks, history, snapshots).
func (w *Workspace) DB() *statedb.DB { return w.db }

// Close drains and releases the workspace: new lifecycle calls fail with
// *ErrClosed immediately, in-flight plan/apply/drift/recover operations run
// to completion (or until their own contexts cancel), and only then are the
// storage engine and event bus released. Close is
// idempotent; concurrent and repeated calls all return the first close's
// error. ctx bounds the wait for in-flight operations: when it expires the
// workspace stays mid-drain (resources are NOT released) and Close returns
// ctx.Err() — call Close again to finish once the stragglers exit.
func (w *Workspace) Close(ctx context.Context) error {
	// The reconciler's loops run lifecycle operations (scoped scans, guarded
	// repairs) through the drain gate; stop it first or the drain would wait
	// on work the controller keeps submitting.
	_ = w.StopReconciler(ctx)
	release, err := w.drain.close(ctx)
	if err != nil || !release {
		return err
	}
	cerr := w.db.Close()
	w.bus.Close()
	w.drain.finish(cerr)
	return cerr
}

// Telemetry exposes the workspace's recorder (nil when telemetry is disabled).
func (w *Workspace) Telemetry() *telemetry.Recorder { return w.telemetry }

// lifecycle attaches the workspace's recorder to the context (callers may
// also supply one via telemetry.WithRecorder) and opens a span covering one
// facade operation. With no recorder anywhere it returns (ctx, nil); every
// span method is nil-safe, so call sites need no guards.
func (w *Workspace) lifecycle(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if w.telemetry != nil && telemetry.FromContext(ctx) == nil {
		ctx = telemetry.WithRecorder(ctx, w.telemetry)
	}
	if events.FromContext(ctx) == nil {
		ctx = events.WithBus(ctx, w.bus)
	}
	return telemetry.StartSpan(ctx, name)
}

// begin admits one lifecycle operation, failing fast once Close has begun.
func (w *Workspace) begin() error { return w.drain.begin(w.name) }

// end retires one lifecycle operation admitted by begin.
func (w *Workspace) end() { w.drain.end() }

// Events exposes the workspace's live event bus.
func (w *Workspace) Events() *events.Bus { return w.bus }

// Subscribe registers a live consumer of the workspace's ops-plane events.
func (w *Workspace) Subscribe(filter events.Filter) *events.Subscription {
	return w.bus.Subscribe(filter, 0)
}

// Cloud exposes the bound cloud interface — the workspace's provider
// runtime, so sharing it with another workspace shares cache, coalescing,
// and the AIMD window too.
func (w *Workspace) Cloud() cloud.Interface { return w.cloudAPI }

// Provider exposes the workspace's provider runtime for stats inspection.
// It returns nil when the bound cloud interface is not a runtime; callers
// must treat nil as "no runtime stats available".
func (w *Workspace) Provider() *provider.Runtime {
	rt, ok := w.cloudAPI.(*provider.Runtime)
	if !ok {
		return nil
	}
	return rt
}

// Instances lists the expanded instance addresses.
func (w *Workspace) Instances() []string {
	ex := w.ex()
	out := make([]string, 0, len(ex.Instances))
	for _, inst := range ex.Instances {
		out = append(out, inst.Addr)
	}
	sort.Strings(out)
	return out
}

// Validate runs compile-time validation: schema structure, semantic types,
// and the cloud-level knowledge base (§3.2).
func (w *Workspace) Validate() *validate.Result {
	_, span := w.lifecycle(context.Background(), "lifecycle.validate")
	res := validate.Validate(w.ex(), nil)
	span.SetAttr("findings", len(res.Findings))
	span.End()
	return res
}

// HasStaleJournal reports whether a crashed run's journal is waiting at
// Config.JournalPath: one found on open, or one a run of this process left
// behind when it failed or was interrupted. A journal a live run is writing
// is not stale.
func (w *Workspace) HasStaleJournal() bool {
	if w.journalPath == "" || !w.owner.try() {
		return false
	}
	defer w.owner.release()
	js, err := apply.ReadJournal(w.journalPath)
	return err == nil && js != nil
}

// Recover reconciles a crashed run's journal (apply, destroy, or rollback)
// against the cloud and commits the reconciled state: completed ops are
// folded in from their done records, in-doubt ops are re-driven under their
// original idempotency keys, and ops that never began are left to the next
// plan. Only the journal is read — never the activity log, so resources the
// journal does not name (another project's, under the same principal) are
// left alone. Returns (nil, nil) when there is nothing to recover.
// The journal is removed only after a fully clean recovery, so a crash
// during recovery itself is handled by calling Recover again. It waits its
// turn behind a live journaled run instead of recovering that run's journal.
func (w *Workspace) Recover(ctx context.Context) (*apply.RecoverReport, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	if err := w.owner.acquire(ctx); err != nil {
		return nil, err
	}
	defer w.owner.release()
	return w.recover(ctx)
}

// recover is Recover for a caller that is already admitted and owns the
// journal: the head of every mutating run and of every refreshing plan.
func (w *Workspace) recover(ctx context.Context) (*apply.RecoverReport, error) {
	if w.journalPath == "" {
		return nil, nil
	}
	js, err := apply.ReadJournal(w.journalPath)
	if err != nil || js == nil {
		return nil, err
	}
	ctx, span := w.lifecycle(ctx, "lifecycle.recover")
	defer span.End()
	span.SetAttr("journal_id", js.Meta.ID)
	span.SetAttr("journal_kind", js.Meta.Kind)

	base := w.db.Snapshot()
	st, rep := apply.Recover(ctx, w.cloudAPI, js, base, apply.Options{Principal: w.principal})
	span.SetAttr("confirmed", rep.Confirmed)
	span.SetAttr("resumed", rep.Resumed)

	// Commit everything the reconciled state and the base disagree on.
	addrs := base.Addrs()
	for _, a := range st.Addrs() {
		if base.Get(a) == nil {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	txn := w.db.Begin("recover")
	defer txn.Abort()
	if err := publish(ctx, txn, addrs, st); err != nil {
		return rep, err
	}
	if err := rep.Err(); err != nil {
		// Some in-doubt op could not be resolved (e.g. the cloud was
		// unreachable); keep the journal so a later Recover retries it.
		return rep, err
	}
	if err := os.Remove(w.journalPath); err != nil && !os.IsNotExist(err) {
		return rep, err
	}
	return rep, nil
}

// publish is the tail of every write to the golden state: take the locks txn
// does not hold yet, stage each address's record in st — or its absence —
// and commit. The caller aborts txn when this fails.
func publish(ctx context.Context, txn *statedb.Txn, addrs []string, st *state.State) error {
	if err := txn.Lock(ctx, addrs...); err != nil {
		return fmt.Errorf("cloudless: acquire locks: %w", err)
	}
	for _, addr := range addrs {
		var err error
		if rs := st.Get(addr); rs != nil {
			err = txn.Put(rs)
		} else {
			err = txn.Delete(addr)
		}
		if err != nil {
			return err
		}
	}
	_, err := txn.Commit()
	return err
}

// compute is every plan verb: admit the operation, reconcile a crashed run's
// journal first when the plan refreshes from the cloud (opts.Cloud is filled
// in here), open the lifecycle span, snapshot the golden state (the latest,
// or as of *at), and plan the current expansion against it. It is the only
// caller of plan.Compute.
func (w *Workspace) compute(ctx context.Context, spanName string, opts plan.Options, at *int) (*plan.Plan, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	if opts.Refresh {
		// No plan builds on a state the cloud has silently moved past. A
		// journal a live run owns is that run's business, not a stale one.
		if w.owner.try() {
			_, err := w.recover(ctx)
			w.owner.release()
			if err != nil {
				return nil, err
			}
		}
		opts.Cloud = w.cloudAPI
	}
	ctx, span := w.lifecycle(ctx, spanName)
	defer span.End()
	if opts.ImpactScope != nil {
		span.SetAttr("changed", len(opts.ImpactScope))
	}
	var prior *state.State
	if at == nil {
		prior = w.db.Snapshot()
	} else {
		span.SetAttr("pinned_serial", *at)
		var err error
		if prior, err = w.db.SnapshotAt(*at); err != nil {
			return nil, err
		}
	}
	p, diags := plan.Compute(ctx, w.ex(), prior, opts)
	if diags.HasErrors() {
		return p, diags
	}
	return p, nil
}

// Plan computes a full plan against the golden state, refreshing every
// recorded resource from the cloud first. A stale journal from a crashed
// run is recovered (and committed) before planning.
func (w *Workspace) Plan(ctx context.Context) (*plan.Plan, error) {
	return w.compute(ctx, "lifecycle.plan", plan.Options{Refresh: true}, nil)
}

// PlanIncremental computes an incremental plan confined to the impact scope
// of the given resource-level addresses (§3.3), skipping refresh and
// evaluation outside the scope.
func (w *Workspace) PlanIncremental(ctx context.Context, changed ...string) (*plan.Plan, error) {
	return w.compute(ctx, "lifecycle.plan_incremental", plan.Options{Refresh: true, ImpactScope: changed}, nil)
}

// Replan computes a plan through the workspace's replan cache: declarations
// whose fingerprint is unchanged since the last (re)plan and whose recorded
// state has not moved replay their memoized diffs, and only the dirty
// subtree is re-evaluated. The result is byte-identical to Plan.
func (w *Workspace) Replan(ctx context.Context) (*plan.Plan, error) {
	return w.compute(ctx, "lifecycle.replan", plan.Options{Refresh: true, Cache: w.replanCache}, nil)
}

// ReplanOffline is Replan without the cloud refresh: it trusts recorded
// state (like PlanOffline) and re-evaluates only the subtree dirtied by
// configuration edits or state commits since the previous cached plan.
func (w *Workspace) ReplanOffline(ctx context.Context) (*plan.Plan, error) {
	return w.compute(ctx, "lifecycle.replan_offline", plan.Options{Cache: w.replanCache}, nil)
}

// ReplanStats reports what the last Replan/ReplanOffline did.
func (w *Workspace) ReplanStats() plan.CacheStats { return w.replanCache.LastStats() }

// PlanOffline plans without refreshing from the cloud (fast, trusts state).
func (w *Workspace) PlanOffline(ctx context.Context) (*plan.Plan, error) {
	return w.compute(ctx, "lifecycle.plan_offline", plan.Options{}, nil)
}

// PlanOfflineAt plans against the golden state as of a past serial instead
// of the latest; serials outside the engine's retained window fail with
// statedb.ErrNoSuchSerial.
func (w *Workspace) PlanOfflineAt(ctx context.Context, serial int) (*plan.Plan, error) {
	return w.compute(ctx, "lifecycle.plan_offline_at", plan.Options{}, &serial)
}

// mutation describes one mutating run to Workspace.run.
type mutation struct {
	// kind labels the transaction, the run_start event and, for a journaled
	// run, its journal.
	kind      string
	journaled bool
	// base, when positive, is the golden-state serial the run's input was
	// computed at: the journal records it, and the commit fails with
	// *statedb.StaleBaseError if a locked address has moved past it.
	base int
	// addrs are locked before exec makes its first cloud call and published
	// from exec's resulting state at commit.
	addrs []string
	// exec is the one call that differs between the verbs. The result's
	// State holds the records to publish; minted names addresses the run
	// added to it that addrs could not list beforehand (drift adoption's
	// import records — no cloud call backs them). A non-nil error abandons
	// the run: nothing is committed and the journal stays for Recover.
	exec func(ctx context.Context, j *apply.Journal) (res *apply.Result, minted []string, err error)
}

// run is every mutating verb — the write-path twin of compute — and its order
// is the crash-safety contract (DESIGN.md S23): admit the operation; take the
// workspace journal, waiting out a live journaled run; recover a stale
// journal (inputStale: what the caller computed predates that recovery, so
// fail with *ErrJournalRecovered rather than proceed); open the lifecycle
// span; let describe size the run against the settled state; lock its
// addresses before the first cloud call; open the journal; publish
// run_start; execute; publish run_finish; stage the locked addresses and
// commit; discard the journal only when the cloud matches what was committed
// (no failed op, or a guarded run that fully reverted itself) and otherwise
// leave it for Recover. The returned error covers everything but per-op
// failures, which the caller reads from the result.
func (w *Workspace) run(ctx context.Context, spanName string, inputStale bool,
	describe func(*telemetry.Span) (*mutation, error)) (*apply.Result, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	if err := w.owner.acquire(ctx); err != nil {
		return nil, err
	}
	defer w.owner.release()
	if rep, err := w.recover(ctx); err != nil {
		return nil, err
	} else if rep != nil && inputStale {
		return nil, &ErrJournalRecovered{Report: rep}
	}
	ctx, span := w.lifecycle(ctx, spanName)
	defer span.End()
	m, err := describe(span)
	if err != nil {
		return nil, err
	}

	txn := w.db.Begin(m.kind)
	if m.base > 0 {
		txn.SetBase(m.base)
	}
	defer txn.Abort()
	if err := txn.Lock(ctx, m.addrs...); err != nil {
		return nil, fmt.Errorf("cloudless: acquire locks: %w", err)
	}
	var j *apply.Journal
	runID, keepJournal := "", true
	if m.journaled && w.journalPath != "" {
		j, err = apply.NewJournal(w.journalPath, apply.Meta{
			Kind: m.kind, BaseSerial: m.base, Principal: w.principal,
		})
		if err != nil {
			return nil, err
		}
		runID = j.Meta().ID
		defer func() {
			if keepJournal {
				_ = j.Close()
			} else {
				_ = j.Discard()
			}
		}()
	}

	w.bus.Publish(events.Event{Kind: "apply.run_start", Run: runID,
		Principal: w.principal, Action: m.kind, N: int64(len(m.addrs))})
	start := time.Now()
	res, minted, err := m.exec(ctx, j)
	if res.Elapsed == 0 {
		res.Elapsed = time.Since(start) // a verb that does not time itself
	}
	failed := err
	if failed == nil {
		failed = res.Err()
	}
	PublishRunFinish(w.bus, w.Provider(), runID, res, failed)
	if err != nil {
		return res, err
	}

	if res.Outputs != nil { // a configuration plan's apply: its state carries the root outputs
		txn.SetOutputs(res.State.Outputs)
	}
	if err := publish(ctx, txn, append(m.addrs, minted...), res.State); err != nil {
		return res, err
	}
	keepJournal = failed != nil && !res.Reverted
	span.SetAttr("applied", res.Applied)
	span.SetAttr("failed", len(res.Errors))
	span.SetAttr("retries", res.Retries)
	// Record outputs on the lifecycle span, when there is one to read them
	// for, with the same redaction the display path applies: sensitive
	// values never reach a trace file.
	if span != nil {
		for name, v := range w.DisplayOutputs() {
			span.SetAttr("output."+name, fmt.Sprint(v))
		}
	}
	return res, nil
}

// Apply executes a plan transactionally: plan-phase policies run first,
// per-resource (or global) locks are held for every pending address across
// the physical apply, and the golden state and time machine are updated
// atomically on completion. The commit carries the plan's pinned serial: if
// other transactions advanced any of these addresses past the plan's base it
// aborts with *StaleBaseError instead of clobbering their work. Failed
// operations yield IaC-level diagnoses.
func (w *Workspace) Apply(ctx context.Context, p *plan.Plan, opts ApplyOptions) (*apply.Result, []*diagnose.Diagnosis, error) {
	stopEvents := func() {}
	defer func() { stopEvents() }()
	res, err := w.run(ctx, "lifecycle.apply", true, func(span *telemetry.Span) (*mutation, error) {
		span.SetAttr("pending", p.Creates+p.Updates+p.Replaces+p.Deletes)
		span.SetAttr("base_serial", p.BaseSerial)
		// OnEvent: a private subscription pumped to the callback. Registered
		// before run_start is published and drained after Apply's run has
		// committed, so the callback observes the complete run.
		if opts.OnEvent != nil {
			sub := w.bus.Subscribe(events.Filter{}, 4*events.DefaultBuffer)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for e := range sub.C() {
					opts.OnEvent(e)
				}
			}()
			stopEvents = func() {
				sub.Close()
				<-done
			}
		}
		if !opts.SkipPolicyCheck {
			w.bindMu.RLock()
			decisions, diags := w.engine.EvaluatePlan(p)
			w.bindMu.RUnlock()
			if diags.HasErrors() {
				return nil, diags
			}
			if denied, msg := policy.Denied(decisions); denied {
				return nil, &ErrPolicyDenied{Message: msg}
			}
		}
		guardOpts := w.guardOpts
		if opts.Guard != nil {
			guardOpts = opts.Guard
		}
		return &mutation{kind: "apply", journaled: true, base: p.BaseSerial, addrs: pendingAddrs(p),
			exec: func(ctx context.Context, j *apply.Journal) (*apply.Result, []string, error) {
				applyOpts := apply.Options{
					Concurrency:     opts.Concurrency,
					Scheduler:       apply.CriticalPathScheduler,
					Principal:       w.principal,
					ContinueOnError: true,
					Journal:         j,
				}
				var res *apply.Result
				if guardOpts != nil {
					res = guard.Run(ctx, w.cloudAPI, p, applyOpts, *guardOpts)
					span.SetAttr("guarded", true)
					span.SetAttr("gate_failures", res.GateFailures)
					span.SetAttr("fuse_tripped", len(res.FuseTripped))
					span.SetAttr("reverted", res.Reverted)
				} else {
					res = apply.Apply(ctx, w.cloudAPI, p, applyOpts)
				}
				// Advance the drift watcher past our own activity so it doesn't
				// chew through events we caused (it filters by principal anyway).
				if w.watcher == nil {
					w.resetWatcher(ctx)
				}
				return res, nil, nil
			}}, nil
	})
	if err != nil {
		return res, nil, err
	}
	var diagnoses []*diagnose.Diagnosis
	ex := w.ex()
	for addr, applyErr := range res.Errors {
		diagnoses = append(diagnoses, diagnose.Explain(applyErr, ex.ByAddr[addr], ex))
	}
	sort.Slice(diagnoses, func(i, j int) bool { return diagnoses[i].Addr < diagnoses[j].Addr })
	return res, diagnoses, res.Err()
}

// PublishRunFinish emits the run-terminating event plus a provider-runtime
// stats snapshot (call / retry / throttle / coalesce counters), so a watcher
// sees how the dispatch layer behaved without polling Stats itself. It is
// exported for the facade's white-box seams; bus, rt and failed (what went
// wrong with the run, if anything) may be nil.
func PublishRunFinish(bus *events.Bus, rt *provider.Runtime, runID string, res *apply.Result, failed error) {
	fin := events.Event{Kind: "apply.run_finish", Run: runID,
		N: int64(res.Applied), Retries: int64(res.Retries),
		Ms: float64(res.Elapsed) / float64(time.Millisecond)}
	if failed != nil {
		fin.Err = failed.Error()
	}
	bus.Publish(fin)
	if rt != nil {
		st := rt.Stats()
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"calls", st.Calls}, {"retries", st.Retries}, {"throttles", st.Throttles},
			{"coalesced", st.Coalesced},
		} {
			bus.Publish(events.Event{Kind: "provider.stats", Run: runID,
				Action: c.name, N: c.v})
		}
	}
}

// Destroy deletes everything in the golden state, in reverse dependency
// order, and commits the emptied state. A crashed run's journal is recovered
// first and the destroy proceeds over the reconciled state.
func (w *Workspace) Destroy(ctx context.Context) (*apply.Result, error) {
	res, err := w.run(ctx, "lifecycle.destroy", false, func(*telemetry.Span) (*mutation, error) {
		snapshot := w.db.Snapshot()
		return &mutation{kind: "destroy", journaled: true, base: snapshot.Serial, addrs: snapshot.Addrs(),
			exec: func(ctx context.Context, j *apply.Journal) (*apply.Result, []string, error) {
				return apply.Destroy(ctx, w.cloudAPI, snapshot, apply.Options{
					Scheduler: apply.CriticalPathScheduler,
					Principal: w.principal, ContinueOnError: true, Journal: j,
				}), nil, nil
			}}, nil
	})
	if err != nil {
		return res, err
	}
	return res, res.Err()
}

// resetWatcher (re)starts the drift watcher at the cloud's current log tail.
func (w *Workspace) resetWatcher(ctx context.Context) {
	tail := int64(0)
	if events, err := w.cloudAPI.Activity(ctx, 0); err == nil && len(events) > 0 {
		tail = events[len(events)-1].Seq
	}
	w.watcher = drift.NewWatcher(w.cloudAPI, w.principal, tail)
}

// WatchDrift polls the activity log for out-of-band changes (§3.5). Call
// repeatedly; the cursor advances automatically.
func (w *Workspace) WatchDrift(ctx context.Context) (*drift.Report, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	ctx, span := w.lifecycle(ctx, "lifecycle.watch_drift")
	defer span.End()
	if w.watcher == nil {
		w.resetWatcher(ctx)
		return &drift.Report{Method: "activity-log"}, nil
	}
	return w.watcher.Poll(ctx, w.db.Snapshot())
}

// ScanDrift performs a full driftctl-style API scan (expensive).
func (w *Workspace) ScanDrift(ctx context.Context) (*drift.Report, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	ctx, span := w.lifecycle(ctx, "lifecycle.scan_drift")
	defer span.End()
	rep, err := drift.FullScan(ctx, w.cloudAPI, w.db.Snapshot())
	if rep != nil {
		span.SetAttr("drift_items", len(rep.Items))
	}
	return rep, err
}

// ReconcileDrift applies drift-phase policies (or the explicit choice) to a
// report and commits the updated state. The drifted addresses are locked
// before the first revert reaches the cloud. Reverts run through the
// applier without a journal: a reverted modification leaves state as it is,
// so a crash mid-revert leaves only drift that the next scan finds.
func (w *Workspace) ReconcileDrift(ctx context.Context, rep *drift.Report, action drift.Action) (*drift.ReconcileResult, error) {
	var out *drift.ReconcileResult
	_, err := w.run(ctx, "lifecycle.reconcile_drift", true, func(*telemetry.Span) (*mutation, error) {
		snapshot := w.db.Snapshot()
		// A report computed against an older state serial describes drift
		// relative to a baseline that no longer exists; reverting it now could
		// undo a legitimate apply that landed in between. Mirror the apply
		// path's *StaleBaseError: fail typed, re-detect, retry.
		if rep.BaseSerial > 0 && snapshot.Serial != rep.BaseSerial {
			return nil, &drift.ErrStaleReport{ReportSerial: rep.BaseSerial, CurrentSerial: snapshot.Serial}
		}
		var addrs []string
		for _, it := range rep.Items {
			if it.Addr != "" {
				addrs = append(addrs, it.Addr)
			}
		}
		return &mutation{kind: "reconcile drift", base: snapshot.Serial, addrs: addrs,
			exec: func(ctx context.Context, _ *apply.Journal) (*apply.Result, []string, error) {
				out = drift.Reconcile(snapshot, rep, func(drift.Item) drift.Action { return action })
				res := &apply.Result{State: out.State, Errors: out.Errors}
				if len(out.Reverts) > 0 {
					// Reverts have no dependencies among them, so no cycle.
					p, _ := plan.New(snapshot, out.Reverts)
					ar := apply.Apply(ctx, w.cloudAPI, p, apply.Options{
						Scheduler: apply.CriticalPathScheduler, Principal: w.principal, ContinueOnError: true,
					})
					for _, ch := range out.Reverts {
						switch err := ar.Errors[ch.Addr]; {
						case err != nil:
							out.Errors[ch.Addr] = err
						case ar.Report.Status[ch.Addr] != graph.StatusDone:
							out.Errors[ch.Addr] = fmt.Errorf("revert never ran: %v", ctx.Err())
						default:
							out.Reverted = append(out.Reverted, ch.Addr)
						}
					}
					res.Retries = ar.Retries
				}
				res.Applied = len(out.Adopted) + len(out.Reverted)
				// Imported unmanaged resources get new addresses.
				var imported []string
				for _, a := range out.State.Addrs() {
					if snapshot.Get(a) == nil {
						imported = append(imported, a)
					}
				}
				return res, imported, nil
			}}, nil
	})
	return out, err
}

// PolicyDecisionsForDrift evaluates drift-phase policies over a report.
func (w *Workspace) PolicyDecisionsForDrift(rep *drift.Report) ([]policy.Decision, error) {
	w.bindMu.RLock()
	decs, diags := w.engine.EvaluateDrift(rep)
	w.bindMu.RUnlock()
	if diags.HasErrors() {
		return decs, diags
	}
	return decs, nil
}

// Observe feeds runtime metrics to operate-phase policies (autoscaling).
// Returned set_variable/scale decisions are already applied to the
// workspace's variables; call Plan+Apply afterwards to enact them.
func (w *Workspace) Observe(metrics map[string]any) ([]policy.Decision, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	m := make(map[string]eval.Value, len(metrics))
	for k, v := range metrics {
		m[k] = eval.FromGo(v)
	}
	// Scale and set_variable decisions write the engine's bindings as they
	// are made, so the evaluation is a writer too.
	w.bindMu.Lock()
	defer w.bindMu.Unlock()
	decs, diags := w.engine.Observe(m)
	if diags.HasErrors() {
		return decs, diags
	}
	vals := map[string]eval.Value{}
	for _, d := range decs {
		if d.Kind == policy.ActionScale || d.Kind == policy.ActionSetVariable {
			vals[d.Variable] = d.NewValue
		}
	}
	if len(vals) > 0 {
		if err := w.bind(vals); err != nil {
			return decs, err
		}
	}
	return decs, nil
}

// PlanRollback computes a minimal rollback to a historical serial (§3.4).
func (w *Workspace) PlanRollback(serial int) (*plan.Plan, error) {
	target, err := w.db.SnapshotAt(serial)
	if err != nil {
		return nil, err
	}
	return rollback.Compute(w.db.Snapshot(), target), nil
}

// ExecuteRollback runs a rollback plan through the applier and commits the
// resulting state. A failed change commits nothing; on a journaled workspace
// the journal is left for Recover.
func (w *Workspace) ExecuteRollback(ctx context.Context, p *plan.Plan) error {
	_, err := w.run(ctx, "lifecycle.rollback", true, func(span *telemetry.Span) (*mutation, error) {
		span.SetAttr("changes", p.PendingCount())
		return &mutation{kind: "rollback", journaled: true, base: p.BaseSerial, addrs: pendingAddrs(p),
			exec: func(ctx context.Context, j *apply.Journal) (*apply.Result, []string, error) {
				after, err := rollback.Execute(ctx, w.cloudAPI, p, apply.Options{
					Scheduler: apply.CriticalPathScheduler,
					Principal: w.principal, ContinueOnError: true, Journal: j,
				})
				res := &apply.Result{State: after}
				if err == nil {
					res.Applied = p.PendingCount()
				}
				return res, nil, err
			}}, nil
	})
	return err
}

// pendingAddrs lists, sorted, the addresses a plan changes: the ones its run
// locks.
func pendingAddrs(p *plan.Plan) []string {
	addrs := make([]string, 0, p.PendingCount())
	for addr, ch := range p.Changes {
		if ch.Action != plan.ActionNoop {
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// Outputs returns the last-applied root outputs as plain Go values.
func (w *Workspace) Outputs() map[string]any {
	out := map[string]any{}
	for k, v := range w.db.Outputs() {
		out[k] = eval.ToGo(v)
	}
	return out
}

// OutputIsSensitive reports whether an output is declared sensitive;
// display layers substitute a redaction marker for such values.
func (w *Workspace) OutputIsSensitive(name string) bool {
	if spec, ok := w.ex().Outputs[name]; ok {
		return spec.Sensitive
	}
	return false
}

// DisplayOutputs returns outputs with sensitive values redacted, for
// printing to terminals and logs.
func (w *Workspace) DisplayOutputs() map[string]any {
	out := w.Outputs()
	for name := range out {
		if w.OutputIsSensitive(name) {
			out[name] = telemetry.Redacted
		}
	}
	return out
}
