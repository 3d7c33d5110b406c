// Package cloudless is a reference implementation of Cloudless Computing
// (Qiu et al., HotNets '23): cloud infrastructure management "as a service",
// covering the full IaC lifecycle the paper lays out — developing,
// validating, deploying, updating, diagnosing, and policing infrastructure.
//
// The central type is Stack: a configuration bound to a cloud, a golden-
// state database with granular locking, a policy engine, and a drift
// watcher. A typical session:
//
//	stack, err := cloudless.Open(cloudless.Options{
//		Sources: map[string]string{"main.ccl": src},
//		Cloud:   sim, // or cloud.NewClient("http://...", nil)
//	})
//	res := stack.Validate()          // compile-time cloud-level checks
//	p, diags := stack.Plan(ctx)      // diff against golden state
//	result, err := stack.Apply(ctx, p)
//
// Stack is a thin single-workspace client of internal/workspace, the
// hostable per-tenant core; cmd/cloudlessd hosts many workspaces in one
// process behind an HTTP API (DESIGN.md S27).
//
// See the examples directory for runnable end-to-end scenarios.
package cloudless

import (
	"context"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/diagnose"
	"cloudless/internal/drift"
	"cloudless/internal/events"
	"cloudless/internal/plan"
	"cloudless/internal/policy"
	"cloudless/internal/provider"
	"cloudless/internal/rollback"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/telemetry"
	"cloudless/internal/validate"
	"cloudless/internal/workspace"
)

// Re-exported names so most callers only import the root package.
type (
	// Plan is an execution plan (see internal/plan).
	Plan = plan.Plan
	// ApplyResult summarizes an apply.
	ApplyResult = apply.Result
	// ValidationResult holds compile-time findings.
	ValidationResult = validate.Result
	// DriftReport is a drift detection outcome.
	DriftReport = drift.Report
	// Diagnosis explains a cloud error at the IaC level.
	Diagnosis = diagnose.Diagnosis
	// Decision is a policy decision.
	Decision = policy.Decision
	// RollbackPlan is a computed rollback.
	RollbackPlan = rollback.Plan
	// RecoverReport summarizes a crashed run's journal recovery.
	RecoverReport = apply.RecoverReport
	// Event is one live ops-plane transition (see internal/events).
	Event = events.Event
	// EventFilter selects event kinds for Subscribe.
	EventFilter = events.Filter
	// EventSubscription is a bounded live view of the stack's event bus.
	EventSubscription = events.Subscription
	// State is recorded infrastructure state.
	State = state.State
	// StaleBaseError is the typed conflict returned when an apply's plan
	// was computed against a state serial that other commits have passed.
	StaleBaseError = statedb.StaleBaseError

	// ApplyOptions tune Apply.
	ApplyOptions = workspace.ApplyOptions
	// ErrPolicyDenied is returned when a plan-phase policy denies the apply.
	ErrPolicyDenied = workspace.ErrPolicyDenied
	// ErrJournalRecovered is returned by Apply when a crashed run's journal
	// was found and recovered before the apply could start: the recovery
	// moved the golden state, so re-plan and apply again.
	ErrJournalRecovered = workspace.ErrJournalRecovered
	// ErrStackClosed is the typed error lifecycle calls return once Close
	// has begun: the stack drains in-flight operations but admits no new
	// ones.
	ErrStackClosed = workspace.ErrClosed
)

// State storage backends for Options.StateBackend.
const (
	BackendMemory = statedb.BackendMemory
	BackendWAL    = statedb.BackendWAL
)

// Scheduler choices for Apply.
const (
	SchedulerFIFO         = apply.FIFOScheduler
	SchedulerCriticalPath = apply.CriticalPathScheduler
)

// Options configure Open.
type Options struct {
	// Sources maps filename to CCL source. Exactly one of Sources or Dir
	// must be set.
	Sources map[string]string
	// Dir loads all .ccl files from a directory.
	Dir string
	// Vars supplies input variable values (plain Go values).
	Vars map[string]any
	// Cloud is the control plane to deploy onto. Required.
	Cloud cloud.Interface
	// Modules resolves module sources; defaults to directory resolution
	// relative to Dir when Dir is set.
	Modules config.ModuleResolver
	// InitialState seeds the golden-state database (e.g. loaded from a
	// state file); defaults to empty.
	InitialState *state.State
	// GlobalLock switches the lock manager to whole-infrastructure
	// locking (the baseline behaviour). Default: per-resource locks.
	GlobalLock bool
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
	// at this path (intents and per-op begin/done records, fsynced before
	// each cloud call). The journal is discarded after a fully successful
	// commit; if it survives — the process crashed or an op failed — the
	// next Plan or Apply recovers it first (see Stack.Recover).
	JournalPath string
	// Policies is CCL policy source enforced across the lifecycle.
	Policies string
	// Principal identifies this stack's changes in cloud activity logs.
	Principal string
	// Telemetry, when set, records a lifecycle span for every facade
	// operation plus the per-layer spans and metrics the internals emit
	// (apply ops, lock waits, cloud API calls, plan scope). Nil disables
	// instrumentation at near-zero cost.
	Telemetry *telemetry.Recorder

	// Provider runtime knobs (DESIGN.md S22). Every cloud call the stack
	// makes — apply ops, drift scans, plan refresh, activity tailing — goes
	// through one shared internal/provider.Runtime that owns read caching,
	// in-flight dedup, AIMD adaptive concurrency, and retry. Zero values
	// mean the runtime defaults.

	// ProviderCacheTTL bounds read-cache entry lifetime (default 30s;
	// negative disables caching).
	ProviderCacheTTL time.Duration
	// ProviderMaxRetries bounds attempts per cloud call (default 4).
	ProviderMaxRetries int
	// ProviderRetryBase seeds full-jitter exponential backoff (default 50ms).
	ProviderRetryBase time.Duration
	// ProviderMaxInFlight is the AIMD concurrency-window ceiling per cloud
	// provider (default 64).
	ProviderMaxInFlight int

	// Guarded-apply knobs (DESIGN.md S24). When GuardApplies is set, every
	// Apply runs health-gated: each create/update is probed until the
	// resource turns ready before dependents unblock, a per-run/per-region
	// failure fuse stops admitting ops into domains that fail too much, and
	// when resources never turn ready (or a fuse trips) the touched blast
	// radius is automatically reverted under the journal.

	// GuardApplies turns guarded execution on.
	GuardApplies bool
	// GuardCanary in (0, 1) applies a dependency-closed canary fraction of
	// each changeset first and releases the rest only if the canary
	// converges healthy. Zero disables the canary split.
	GuardCanary float64
	// GuardMaxFailures trips a failure domain's fuse at this many failures
	// (default 3).
	GuardMaxFailures int
	// GuardMaxFailureFraction trips a domain when failed/planned reaches
	// this fraction of the domain's planned ops (default 0.5).
	GuardMaxFailureFraction float64
	// HealthProbeTimeout bounds the per-resource readiness wait (default 30s).
	HealthProbeTimeout time.Duration
	// HealthProbeInterval is the first probe poll gap; polls back off
	// exponentially from it (default 10ms).
	HealthProbeInterval time.Duration
}

// config converts public options into the workspace core's config.
func (o Options) config() workspace.Config {
	return workspace.Config{
		Sources:                 o.Sources,
		Dir:                     o.Dir,
		Vars:                    o.Vars,
		Cloud:                   o.Cloud,
		Modules:                 o.Modules,
		InitialState:            o.InitialState,
		GlobalLock:              o.GlobalLock,
		StateBackend:            o.StateBackend,
		StateDir:                o.StateDir,
		JournalPath:             o.JournalPath,
		Policies:                o.Policies,
		Principal:               o.Principal,
		Telemetry:               o.Telemetry,
		ProviderCacheTTL:        o.ProviderCacheTTL,
		ProviderMaxRetries:      o.ProviderMaxRetries,
		ProviderRetryBase:       o.ProviderRetryBase,
		ProviderMaxInFlight:     o.ProviderMaxInFlight,
		GuardApplies:            o.GuardApplies,
		GuardCanary:             o.GuardCanary,
		GuardMaxFailures:        o.GuardMaxFailures,
		GuardMaxFailureFraction: o.GuardMaxFailureFraction,
		HealthProbeTimeout:      o.HealthProbeTimeout,
		HealthProbeInterval:     o.HealthProbeInterval,
	}
}

// Stack is an infrastructure under cloudless management: a thin
// single-workspace client of the internal/workspace core. The zero value
// is not usable; construct with Open.
type Stack struct {
	ws *workspace.Workspace

	// cloudAPI and bus mirror the workspace's bindings. They exist as
	// fields (rather than reads through ws) so package-internal test seams
	// can exercise Provider and event publication on a bare Stack without
	// wiring a whole workspace.
	cloudAPI cloud.Interface
	bus      *events.Bus
}

// Open loads, expands, and binds a configuration.
func Open(opts Options) (*Stack, error) {
	ws, err := workspace.New(opts.config())
	if err != nil {
		return nil, err
	}
	return &Stack{ws: ws, cloudAPI: ws.Cloud(), bus: ws.Events()}, nil
}

// SetVar changes an input variable (e.g. applying a policy decision) and
// re-expands the configuration.
func (s *Stack) SetVar(name string, value any) error { return s.ws.SetVar(name, value) }

// Var reads a managed variable's current value.
func (s *Stack) Var(name string) (any, bool) { return s.ws.Var(name) }

// DB exposes the golden-state database (locks, history, snapshots).
func (s *Stack) DB() *statedb.DB { return s.ws.DB() }

// Close drains and releases the stack: lifecycle calls made after Close
// begins fail with *ErrStackClosed, in-flight plan/apply/drift/recover
// operations run to completion first, and only then are the storage
// engine, flight recorder, and event bus released. Close is idempotent —
// concurrent and repeated calls all return the first close's error. Use
// CloseContext to bound the drain wait.
func (s *Stack) Close() error { return s.ws.Close(context.Background()) }

// CloseContext is Close with a bounded wait: when ctx expires before
// in-flight operations finish it returns ctx.Err() and the stack stays
// mid-drain (new calls still fail, resources not yet released); call it
// again to finish once the stragglers exit.
func (s *Stack) CloseContext(ctx context.Context) error { return s.ws.Close(ctx) }

// Telemetry exposes the stack's recorder (nil when telemetry is disabled).
func (s *Stack) Telemetry() *telemetry.Recorder { return s.ws.Telemetry() }

// Events exposes the stack's live event bus.
func (s *Stack) Events() *events.Bus { return s.bus }

// Subscribe registers a live consumer of the stack's ops-plane events. The
// returned subscription's channel receives every matching event published
// after the call; a consumer that falls behind loses oldest events first
// (see Subscription.Dropped) — publishers never block. Close the
// subscription when done.
func (s *Stack) Subscribe(filter EventFilter) *EventSubscription { return s.ws.Subscribe(filter) }

// FlightRecorderPath returns the JSONL events artifact location ("" when no
// journal path is configured).
func (s *Stack) FlightRecorderPath() string { return s.ws.FlightRecorderPath() }

// Cloud exposes the bound cloud interface — the stack's provider runtime,
// so sharing it with another stack shares cache, coalescing, and the AIMD
// window too.
func (s *Stack) Cloud() cloud.Interface { return s.cloudAPI }

// Provider exposes the stack's provider runtime for stats inspection. It
// returns nil when the bound cloud interface is not a runtime (possible for
// stacks constructed through test seams or future non-runtime paths);
// callers must treat nil as "no runtime stats available".
func (s *Stack) Provider() *provider.Runtime {
	rt, ok := s.cloudAPI.(*provider.Runtime)
	if !ok {
		return nil
	}
	return rt
}

// Instances lists the expanded instance addresses.
func (s *Stack) Instances() []string { return s.ws.Instances() }

// Validate runs compile-time validation: schema structure, semantic types,
// and the cloud-level knowledge base (§3.2).
func (s *Stack) Validate() *ValidationResult { return s.ws.Validate() }

// HasStaleJournal reports whether a crashed run's journal is waiting at
// Options.JournalPath.
func (s *Stack) HasStaleJournal() bool { return s.ws.HasStaleJournal() }

// Recover reconciles a crashed run's journal (apply, destroy, or rollback)
// against the cloud and commits the reconciled state: completed ops are
// folded in from their done records, in-doubt ops are re-driven under their
// original idempotency keys, and orphaned resources are adopted or deleted
// via the activity log. Returns (nil, nil) when there is nothing to recover.
// The journal is removed only after a fully clean recovery, so a crash
// during recovery itself is handled by calling Recover again.
func (s *Stack) Recover(ctx context.Context) (*RecoverReport, error) { return s.ws.Recover(ctx) }

// Plan computes a full plan against the golden state, refreshing every
// recorded resource from the cloud first. A stale journal from a crashed
// run is recovered (and committed) before planning.
func (s *Stack) Plan(ctx context.Context) (*Plan, error) { return s.ws.Plan(ctx) }

// PlanIncremental computes an incremental plan confined to the impact scope
// of the given resource-level addresses (§3.3), skipping refresh and
// evaluation outside the scope.
func (s *Stack) PlanIncremental(ctx context.Context, changed ...string) (*Plan, error) {
	return s.ws.PlanIncremental(ctx, changed...)
}

// Replan computes a plan through the stack's replan cache: declarations
// whose fingerprint is unchanged since the last (re)plan and whose recorded
// state has not moved replay their memoized diffs, and only the dirty
// subtree — edited decls, changed inputs, drifted or committed addresses,
// plus transitive dependents — is re-evaluated. The result is byte-identical
// to Plan; the first call after Open is effectively a full plan that warms
// the cache. Refreshes recorded state (batched) like Plan does, so drift
// observed by the refresh dirties exactly the drifted subtrees.
func (s *Stack) Replan(ctx context.Context) (*Plan, error) { return s.ws.Replan(ctx) }

// ReplanOffline is Replan without the cloud refresh: it trusts recorded
// state (like PlanOffline) and re-evaluates only the subtree dirtied by
// configuration edits or state commits since the previous cached plan. This
// is the edit-loop fast path: a one-resource change in a large graph costs
// one subtree, not a full evaluation sweep.
func (s *Stack) ReplanOffline(ctx context.Context) (*Plan, error) { return s.ws.ReplanOffline(ctx) }

// ReplanStats reports what the last Replan/ReplanOffline did: the
// invalidation type ("cold", "config", "state", "clean"), dirty-seed counts,
// and how many resources replayed from cache vs re-evaluated.
func (s *Stack) ReplanStats() plan.CacheStats { return s.ws.ReplanStats() }

// InvalidateReplanCache forces the next Replan to be a full replan.
func (s *Stack) InvalidateReplanCache() { s.ws.InvalidateReplanCache() }

// PlanOffline plans without refreshing from the cloud (fast, trusts state).
func (s *Stack) PlanOffline(ctx context.Context) (*Plan, error) { return s.ws.PlanOffline(ctx) }

// PlanOfflineAt plans against the golden state as of a past serial instead
// of the latest; serials from before the stack was opened return
// statedb.ErrNoSuchSerial. The returned plan is pinned at that serial, so
// applying it against a state that moved on aborts with *StaleBaseError.
func (s *Stack) PlanOfflineAt(ctx context.Context, serial int) (*Plan, error) {
	return s.ws.PlanOfflineAt(ctx, serial)
}

// Apply executes a plan transactionally: plan-phase policies run first,
// per-resource (or global) locks are held for every pending address across
// the physical apply, and the golden state and time machine are updated
// atomically on completion. Failed operations yield IaC-level diagnoses.
func (s *Stack) Apply(ctx context.Context, p *Plan, opts ApplyOptions) (*ApplyResult, []*Diagnosis, error) {
	return s.ws.Apply(ctx, p, opts)
}

// publishRunFinish emits the run-terminating event plus a provider-runtime
// stats snapshot; retained as a Stack method so package-internal seams can
// drive it on a bare Stack (nil bus and non-runtime clouds are safe).
func (s *Stack) publishRunFinish(runID string, res *ApplyResult) {
	workspace.PublishRunFinish(s.bus, s.Provider(), runID, res)
}

// Destroy deletes everything in the golden state, in reverse dependency
// order, and commits the emptied state.
func (s *Stack) Destroy(ctx context.Context) (*ApplyResult, error) { return s.ws.Destroy(ctx) }

// WatchDrift polls the activity log for out-of-band changes (§3.5). Call
// repeatedly; the cursor advances automatically.
func (s *Stack) WatchDrift(ctx context.Context) (*DriftReport, error) { return s.ws.WatchDrift(ctx) }

// ScanDrift performs a full driftctl-style API scan (expensive).
func (s *Stack) ScanDrift(ctx context.Context) (*DriftReport, error) { return s.ws.ScanDrift(ctx) }

// ReconcileDrift applies drift-phase policies (or the explicit choice) to a
// report and commits the updated state.
func (s *Stack) ReconcileDrift(ctx context.Context, rep *DriftReport, action drift.Action) (*drift.ReconcileResult, error) {
	return s.ws.ReconcileDrift(ctx, rep, action)
}

// PolicyDecisionsForDrift evaluates drift-phase policies over a report.
func (s *Stack) PolicyDecisionsForDrift(rep *DriftReport) ([]Decision, error) {
	return s.ws.PolicyDecisionsForDrift(rep)
}

// Observe feeds runtime metrics to operate-phase policies (autoscaling).
// Returned set_variable/scale decisions are already applied to the stack's
// variables; call Plan+Apply afterwards to enact them.
func (s *Stack) Observe(metrics map[string]any) ([]Decision, error) { return s.ws.Observe(metrics) }

// PlanRollback computes a minimal rollback to a historical serial (§3.4).
func (s *Stack) PlanRollback(serial int) (*RollbackPlan, *State, error) {
	return s.ws.PlanRollback(serial)
}

// ExecuteRollback runs a rollback plan and commits the resulting state.
func (s *Stack) ExecuteRollback(ctx context.Context, p *RollbackPlan, target *State) error {
	return s.ws.ExecuteRollback(ctx, p, target)
}

// Outputs returns the last-applied root outputs as plain Go values.
func (s *Stack) Outputs() map[string]any { return s.ws.Outputs() }

// OutputIsSensitive reports whether an output is declared sensitive;
// display layers substitute a redaction marker for such values.
func (s *Stack) OutputIsSensitive(name string) bool { return s.ws.OutputIsSensitive(name) }

// DisplayOutputs returns outputs with sensitive values redacted, for
// printing to terminals and logs.
func (s *Stack) DisplayOutputs() map[string]any { return s.ws.DisplayOutputs() }
