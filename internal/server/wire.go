package server

import (
	"sort"

	"cloudless/internal/apply"
	"cloudless/internal/diagnose"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/jobs"
	"cloudless/internal/plan"
)

// Wire types shared by the server and its Go client. Lifecycle results
// carry eval.Value attribute maps internally, so each job kind renders a
// JSON-stable summary instead of marshaling internals directly.

// CreateWorkspaceRequest opens a workspace on the server.
type CreateWorkspaceRequest struct {
	Name string `json:"name"`
	// Sources maps filename to CCL source.
	Sources map[string]string `json:"sources"`
	// Vars supplies input variable values.
	Vars map[string]any `json:"vars,omitempty"`
	// Policies is CCL policy source enforced across the lifecycle.
	Policies string `json:"policies,omitempty"`
	// StateBackend picks the golden-state engine ("" = server default).
	StateBackend string `json:"state_backend,omitempty"`
	// GuardApplies turns health-gated applies on for this workspace.
	GuardApplies bool    `json:"guard_applies,omitempty"`
	GuardCanary  float64 `json:"guard_canary,omitempty"`
}

// WorkspaceInfo describes a hosted workspace.
type WorkspaceInfo struct {
	Name      string         `json:"name"`
	Serial    int            `json:"serial"`
	Resources int            `json:"resources"`
	Instances []string       `json:"instances,omitempty"`
	Outputs   map[string]any `json:"outputs,omitempty"`
}

// JobRequest submits one lifecycle job.
type JobRequest struct {
	// Kind is one of "plan", "apply", "destroy", "drift", "scan",
	// "reconcile", "rollback", "recover".
	Kind string `json:"kind"`
	// PlanJob applies the stored plan artifact from an earlier plan job
	// instead of replanning inside the apply ("" replans).
	PlanJob string `json:"plan_job,omitempty"`
	// Targets confines a plan (or an apply that plans) to the impact scope
	// of these resource addresses; empty plans everything.
	Targets []string `json:"targets,omitempty"`
	// Concurrency bounds apply parallelism (0 = default).
	Concurrency int `json:"concurrency,omitempty"`
	// Action picks the reconcile action ("adopt", "revert", "notify") for
	// kind "reconcile"; the drift report is the result of DriftJob.
	Action string `json:"action,omitempty"`
	// DriftJob names the drift/scan job whose report a reconcile consumes.
	DriftJob string `json:"drift_job,omitempty"`
	// ToSerial is the serial a "rollback" returns the infrastructure to: one
	// the workspace's history lists. DryRun plans it without executing.
	ToSerial int  `json:"to_serial,omitempty"`
	DryRun   bool `json:"dry_run,omitempty"`
	// IdemKey is a client-chosen idempotency key: resubmitting with the
	// same key (e.g. retrying after a timeout or a daemon restart) returns
	// the original job instead of creating a new one. The Go client fills
	// one in automatically when left empty.
	IdemKey string `json:"idem_key,omitempty"`
}

// JobStatus is a job snapshot plus its rendered result once terminal.
type JobStatus struct {
	jobs.View
	// Result holds the kind-specific summary (PlanSummary, ApplySummary,
	// DriftSummary, RollbackSummary, RecoverSummary) once the job succeeded.
	// It decodes as map[string]any on the client; use the typed helpers on
	// Client.
	Result any `json:"result,omitempty"`
}

// PlanChange is one planned action.
type PlanChange struct {
	Addr         string   `json:"addr"`
	Action       string   `json:"action"`
	Type         string   `json:"type,omitempty"`
	Region       string   `json:"region,omitempty"`
	ChangedAttrs []string `json:"changed_attrs,omitempty"`
}

// PlanSummary is the wire form of a plan (the diff artifact).
type PlanSummary struct {
	BaseSerial int          `json:"base_serial"`
	Creates    int          `json:"creates"`
	Updates    int          `json:"updates"`
	Replaces   int          `json:"replaces"`
	Deletes    int          `json:"deletes"`
	Noops      int          `json:"noops"`
	Changes    []PlanChange `json:"changes,omitempty"`
}

// Pending counts the non-noop actions.
func (p PlanSummary) Pending() int { return p.Creates + p.Updates + p.Replaces + p.Deletes }

// ApplySummary is the wire form of an apply/destroy result. A failed job
// carries it too: what landed before the failure is committed.
type ApplySummary struct {
	Applied    int               `json:"applied"`
	Failed     int               `json:"failed"`
	Retries    int               `json:"retries"`
	ElapsedMs  float64           `json:"elapsed_ms"`
	Reverted   bool              `json:"reverted,omitempty"`
	RolledBack []string          `json:"rolled_back,omitempty"`
	Errors     map[string]string `json:"errors,omitempty"`
	// GateFailures and FuseTripped report a guarded apply's health gates:
	// ops that never turned ready, and failure domains whose fuse opened.
	GateFailures int      `json:"gate_failures,omitempty"`
	FuseTripped  []string `json:"fuse_tripped,omitempty"`
	// Diagnoses explains each failed op in terms of the configuration,
	// rendered for a terminal.
	Diagnoses []string       `json:"diagnoses,omitempty"`
	Outputs   map[string]any `json:"outputs,omitempty"`
	Serial    int            `json:"serial"`
}

// DriftItem is one detected divergence.
type DriftItem struct {
	Kind         string   `json:"kind"`
	Addr         string   `json:"addr,omitempty"`
	Type         string   `json:"type,omitempty"`
	ID           string   `json:"id,omitempty"`
	Actor        string   `json:"actor,omitempty"`
	ChangedAttrs []string `json:"changed_attrs,omitempty"`
}

// DriftSummary is the wire form of a drift report.
type DriftSummary struct {
	Method   string      `json:"method"`
	Items    []DriftItem `json:"items,omitempty"`
	APICalls int         `json:"api_calls"`
	LogReads int         `json:"log_reads"`
}

// ReconcileSummary is the wire form of a drift reconciliation.
type ReconcileSummary struct {
	Adopted  []string          `json:"adopted,omitempty"`
	Reverted []string          `json:"reverted,omitempty"`
	Notified []string          `json:"notified,omitempty"`
	Errors   map[string]string `json:"errors,omitempty"`
}

// RollbackSummary is the wire form of a rollback job: the plan, and the
// golden-state serial once it ran (or was found to have nothing to do).
type RollbackSummary struct {
	ToSerial int `json:"to_serial"`
	PlanSummary
	DryRun bool `json:"dry_run,omitempty"`
	Serial int  `json:"serial"`
}

// RecoverSummary is the wire form of a journal recovery.
type RecoverSummary struct {
	Recovered bool   `json:"recovered"`
	Kind      string `json:"kind,omitempty"`
	Confirmed int    `json:"confirmed"`
	Resumed   int    `json:"resumed"`
}

// ResumeGap is the typed marker for a broken event-stream watermark: the
// client's ?since= can no longer be resumed gaplessly, either because the
// in-memory replay ring dropped events past its capacity ("overflow") or
// because the daemon restarted and sequence numbers started over
// ("restart" — the ring is not persisted across restarts). Consumers
// should surface the gap and re-anchor at Next instead of assuming a
// contiguous stream.
type ResumeGap struct {
	// Reason is "restart" or "overflow".
	Reason string `json:"reason"`
	// Since echoes the watermark that could not be resumed.
	Since int64 `json:"since"`
	// Oldest is the oldest sequence still replayable (0 when none).
	Oldest int64 `json:"oldest"`
}

// EventsPage is one long-poll result: events after the watermark, plus the
// next watermark to resume from.
type EventsPage struct {
	Events []WireEvent `json:"events"`
	// Next is the highest sequence seen (pass back as ?since=). Equal to
	// the request watermark when the poll timed out empty.
	Next int64 `json:"next"`
	// Gap, when set, signals that the requested watermark could not be
	// resumed without loss (see ResumeGap). Events (if any) start at the
	// oldest the server still has.
	Gap *ResumeGap `json:"gap,omitempty"`
}

// WireEvent mirrors events.Event (kept as an alias-free copy so the wire
// format is explicit and stable).
type WireEvent struct {
	Seq       int64   `json:"seq"`
	Time      int64   `json:"time"`
	Kind      string  `json:"kind"`
	Run       string  `json:"run,omitempty"`
	Addr      string  `json:"addr,omitempty"`
	Type      string  `json:"type,omitempty"`
	ID        string  `json:"id,omitempty"`
	Region    string  `json:"region,omitempty"`
	Action    string  `json:"action,omitempty"`
	Wave      string  `json:"wave,omitempty"`
	Domain    string  `json:"domain,omitempty"`
	Provider  string  `json:"provider,omitempty"`
	Principal string  `json:"principal,omitempty"`
	Err       string  `json:"err,omitempty"`
	N         int64   `json:"n,omitempty"`
	Retries   int64   `json:"retries,omitempty"`
	Ms        float64 `json:"ms,omitempty"`
	Window    float64 `json:"window,omitempty"`
	CloudSeq  int64   `json:"cloud_seq,omitempty"`
}

// apiError is the wire error body.
type apiError struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// summarizePlan renders a plan into its wire artifact.
func summarizePlan(p *plan.Plan) PlanSummary {
	s := PlanSummary{
		BaseSerial: p.BaseSerial,
		Creates:    p.Creates, Updates: p.Updates,
		Replaces: p.Replaces, Deletes: p.Deletes, Noops: p.Noops,
	}
	for addr, ch := range p.Changes {
		if ch.Action == plan.ActionNoop {
			continue
		}
		s.Changes = append(s.Changes, PlanChange{
			Addr: addr, Action: ch.Action.String(),
			Type: ch.Type, Region: ch.Region, ChangedAttrs: ch.ChangedAttrs,
		})
	}
	sort.Slice(s.Changes, func(i, j int) bool { return s.Changes[i].Addr < s.Changes[j].Addr })
	return s
}

// summarizeApply renders an apply/destroy result; serial is the post-commit
// golden-state serial, outputs the redacted display outputs.
func summarizeApply(res *apply.Result, diagnoses []*diagnose.Diagnosis, serial int, outputs map[string]any) ApplySummary {
	s := ApplySummary{
		Applied: res.Applied, Failed: len(res.Errors), Retries: res.Retries,
		ElapsedMs: float64(res.Elapsed.Milliseconds()),
		Reverted:  res.Reverted, RolledBack: res.RolledBack,
		GateFailures: res.GateFailures, FuseTripped: res.FuseTripped,
		Outputs: outputs, Serial: serial,
	}
	for _, d := range diagnoses {
		s.Diagnoses = append(s.Diagnoses, d.String())
	}
	if len(res.Errors) > 0 {
		s.Errors = map[string]string{}
		for addr, err := range res.Errors {
			s.Errors[addr] = err.Error()
		}
	}
	return s
}

// summarizeDrift renders a drift report.
func summarizeDrift(rep *drift.Report) DriftSummary {
	s := DriftSummary{Method: rep.Method, APICalls: rep.APICalls, LogReads: rep.LogReads}
	for _, it := range rep.Items {
		s.Items = append(s.Items, DriftItem{
			Kind: it.Kind.String(), Addr: it.Addr, Type: it.Type, ID: it.ID,
			Actor: it.Actor, ChangedAttrs: it.ChangedAttrs,
		})
	}
	return s
}

// summarizeRecover renders a journal recovery (nil report = nothing to do).
func summarizeRecover(rep *apply.RecoverReport) RecoverSummary {
	if rep == nil {
		return RecoverSummary{}
	}
	return RecoverSummary{
		Recovered: true, Kind: rep.Kind,
		Confirmed: rep.Confirmed, Resumed: rep.Resumed,
	}
}

// toGoVars converts request vars into plain Go values (JSON decoding
// already yields plain values; this keeps eval out of the wire layer).
func toGoVars(in map[string]any) map[string]any {
	if in == nil {
		return nil
	}
	out := make(map[string]any, len(in))
	for k, v := range in {
		out[k] = eval.ToGo(eval.FromGo(v))
	}
	return out
}
