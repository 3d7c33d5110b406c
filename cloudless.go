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

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/diagnose"
	"cloudless/internal/drift"
	"cloudless/internal/events"
	"cloudless/internal/plan"
	"cloudless/internal/policy"
	"cloudless/internal/provider"
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

	// Options configure Open: the workspace core's Config, spelled once (see
	// its field docs). Name is optional and only labels the stack in
	// journals and events.
	Options = workspace.Config
	// ApplyOptions tune Apply.
	ApplyOptions = workspace.ApplyOptions
	// ErrPolicyDenied is returned when a plan-phase policy denies the apply.
	ErrPolicyDenied = workspace.ErrPolicyDenied
	// ErrJournalRecovered is returned by Apply, ExecuteRollback and
	// ReconcileDrift when a crashed run's journal was found and recovered
	// before the run could start: the recovery moved the golden state, so
	// re-plan (or re-scan) and try again.
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
	ws, err := workspace.New(opts)
	if err != nil {
		return nil, err
	}
	return &Stack{ws: ws, cloudAPI: ws.Cloud(), bus: ws.Events()}, nil
}

// SetVar changes an input variable (e.g. applying a policy decision) and
// re-expands the configuration. Safe to call while other goroutines plan;
// fails with *ErrStackClosed once Close has begun.
func (s *Stack) SetVar(name string, value any) error { return s.ws.SetVar(name, value) }

// Var reads a managed variable's current value.
func (s *Stack) Var(name string) (any, bool) { return s.ws.Var(name) }

// DB exposes the golden-state database (locks, history, snapshots).
func (s *Stack) DB() *statedb.DB { return s.ws.DB() }

// Close drains and releases the stack: lifecycle calls made after Close
// begins fail with *ErrStackClosed, in-flight plan/apply/drift/recover
// operations run to completion first, and only then are the storage
// engine and event bus released. Close is idempotent —
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
// original idempotency keys, and ops that never began are left to the next
// plan. Only the journal is read — never the activity log, so resources the
// journal does not name (another project's, under the same principal) are
// left alone. Returns (nil, nil) when there is nothing to recover.
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
	workspace.PublishRunFinish(s.bus, s.Provider(), runID, res, res.Err())
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
func (s *Stack) PlanRollback(serial int) (*Plan, error) { return s.ws.PlanRollback(serial) }

// ExecuteRollback runs a rollback plan and commits the resulting state.
func (s *Stack) ExecuteRollback(ctx context.Context, p *Plan) error {
	return s.ws.ExecuteRollback(ctx, p)
}

// Outputs returns the last-applied root outputs as plain Go values.
func (s *Stack) Outputs() map[string]any { return s.ws.Outputs() }

// OutputIsSensitive reports whether an output is declared sensitive;
// display layers substitute a redaction marker for such values.
func (s *Stack) OutputIsSensitive(name string) bool { return s.ws.OutputIsSensitive(name) }

// DisplayOutputs returns outputs with sensitive values redacted, for
// printing to terminals and logs.
func (s *Stack) DisplayOutputs() map[string]any { return s.ws.DisplayOutputs() }
