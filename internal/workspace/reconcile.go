package workspace

import (
	"context"
	"errors"
	"sort"
	"strings"
	"time"

	"cloudless/internal/drift"
	"cloudless/internal/guard"
	"cloudless/internal/plan"
	"cloudless/internal/reconcile"
	"cloudless/internal/statedb"
	"cloudless/internal/telemetry"
)

// repairGuard is the guard configuration forced onto auto-repairs when the
// workspace itself was created without GuardApplies: a self-healing loop
// must never push an unguarded change. A 25% canary wave with rollback on
// failure keeps a bad repair's blast radius small and reverted.
var repairGuard = guard.Options{Canary: 0.25}

// ReconcilerOptions configures StartReconciler.
type ReconcilerOptions struct {
	// Mode is reconcile.ModeRepair (default) or reconcile.ModeDetect.
	Mode string
	// Watermark resumes the activity cursor (-1 = anchor at the log tail).
	Watermark int64
	// OnCheckpoint receives the acknowledged watermark as it advances; the
	// daemon persists it in the jobs journal so a restart resumes here.
	OnCheckpoint func(watermark int64)
	// FullScanEvery is reconcile.Config.FullScanEvery: the safety-net
	// period (0 = reconcile.DefaultFullScanEvery, < 0 = off).
	FullScanEvery time.Duration
	// Clock drives the controller's waits (nil = telemetry.System).
	Clock telemetry.Clock
}

// StartReconciler starts the workspace's continuous reconciliation
// controller (DESIGN.md S29). At most one controller runs per workspace;
// starting a second one fails. The controller's scans and repairs run as
// ordinary lifecycle operations through the drain gate, and Close stops the
// controller before draining.
func (w *Workspace) StartReconciler(opts ReconcilerOptions) (*reconcile.Controller, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	w.recMu.Lock()
	defer w.recMu.Unlock()
	if w.rec != nil {
		return nil, errors.New("cloudless: reconciler already running for workspace " + w.name)
	}
	cfg := reconcile.Config{
		Name:      w.name,
		Principal: w.principal,
		Cloud:     w.cloudAPI,
		Bus:       w.bus,
		Snapshot:  w.db.Snapshot,
		Verify:    w.ScanDriftAddrs,
		FullScan: func(ctx context.Context) (*drift.Report, error) {
			return w.ScanDrift(ctx)
		},
		Repair:        w.RepairDrift,
		Mode:          opts.Mode,
		Watermark:     opts.Watermark,
		OnCheckpoint:  opts.OnCheckpoint,
		FullScanEvery: opts.FullScanEvery,
		Clock:         opts.Clock,
	}
	if w.telemetry != nil {
		cfg.Registry = w.telemetry.Metrics()
	}
	c, err := reconcile.Start(cfg)
	if err != nil {
		return nil, err
	}
	w.rec = c
	return c, nil
}

// Reconciler returns the running controller, or nil.
func (w *Workspace) Reconciler() *reconcile.Controller {
	w.recMu.Lock()
	defer w.recMu.Unlock()
	return w.rec
}

// StopReconciler stops the controller if one is running. It is idempotent
// and safe to call on a workspace that never started one.
func (w *Workspace) StopReconciler(ctx context.Context) error {
	w.recMu.Lock()
	c := w.rec
	w.rec = nil
	w.recMu.Unlock()
	if c == nil {
		return nil
	}
	return c.Stop(ctx)
}

// ScanDriftAddrs runs a scoped drift verification over just the given state
// addresses — the cheap, targeted counterpart of ScanDrift that the
// reconciler uses to confirm event-implied drift.
func (w *Workspace) ScanDriftAddrs(ctx context.Context, addrs []string) (*drift.Report, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	ctx, span := w.lifecycle(ctx, "lifecycle.scan_drift_addrs")
	span.SetAttr("addrs", len(addrs))
	defer span.End()
	rep, err := drift.ScanAddrs(ctx, w.cloudAPI, w.db.Snapshot(), addrs)
	if rep != nil {
		span.SetAttr("drift_items", len(rep.Items))
	}
	return rep, err
}

// RepairDrift reverts a drift report by re-planning the impacted resources
// (the refresh folds the drifted cloud attributes in, so the plan is exactly
// the set of operations restoring declared intent) and applying the result
// through the guarded apply path. It fails with *drift.ErrStaleReport when
// the golden state has advanced past the report's baseline.
func (w *Workspace) RepairDrift(ctx context.Context, rep *drift.Report) (*reconcile.RepairOutcome, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	defer w.end()
	ctx, span := w.lifecycle(ctx, "lifecycle.repair_drift")
	defer span.End()

	preSnap := w.db.Snapshot()
	if rep.BaseSerial > 0 && preSnap.Serial != rep.BaseSerial {
		return nil, &drift.ErrStaleReport{ReportSerial: rep.BaseSerial, CurrentSerial: preSnap.Serial}
	}

	// Collapse instance addresses ("app.web[3]") to the resource-level
	// addresses plan.Options.ImpactScope expects.
	seen := map[string]bool{}
	var addrs []string
	for _, it := range rep.Items {
		if it.Addr == "" {
			continue // unmanaged: import/adopt is a policy decision, not a repair
		}
		addr := it.Addr
		if i := strings.IndexByte(addr, '['); i >= 0 {
			addr = addr[:i]
		}
		if !seen[addr] {
			seen[addr] = true
			addrs = append(addrs, addr)
		}
	}
	if len(addrs) == 0 {
		return &reconcile.RepairOutcome{}, nil
	}
	sort.Strings(addrs)
	span.SetAttr("repair_scope", len(addrs))

	p, err := w.PlanIncremental(ctx, addrs...)
	if err != nil {
		return nil, err
	}
	guardOpts := w.guardOpts
	if guardOpts == nil {
		g := repairGuard
		guardOpts = &g
	}
	res, _, aerr := w.Apply(ctx, p, ApplyOptions{Guard: guardOpts})
	out := &reconcile.RepairOutcome{}
	if res != nil {
		out.Applied = res.Applied
		out.Reverted = res.Reverted
		if len(res.Errors) > 0 {
			out.Errors = make(map[string]string, len(res.Errors))
			for addr, e := range res.Errors {
				out.Errors[addr] = e.Error()
			}
		}
	}
	// A concurrent apply moving the base serial under us is the same
	// condition ErrStaleReport names at the report level: translate it so
	// callers (the controller) re-verify instead of counting a failure.
	var sbe *statedb.StaleBaseError
	if errors.As(aerr, &sbe) {
		return out, &drift.ErrStaleReport{ReportSerial: sbe.Base, CurrentSerial: sbe.Committed}
	}

	// A failed repair must never shrink the estate. Repairing a deleted
	// resource plans a create (the refresh pruned the dead record), so when
	// that create fails its health gate and rolls back, the commit drops the
	// address from state entirely — the drift would vanish from every future
	// scan and a failed repair would read as convergence. Restore the
	// pre-repair records for failed creates so the loss stays visible as
	// deleted-drift and the controller keeps retrying (or backs off).
	if res != nil && len(res.Errors) > 0 {
		post := w.db.Snapshot()
		var restore []string
		for addr := range res.Errors {
			ch := p.Changes[addr]
			if ch == nil || ch.Action != plan.ActionCreate {
				continue
			}
			if post.Get(addr) == nil && preSnap.Get(addr) != nil {
				restore = append(restore, addr)
			}
		}
		if len(restore) > 0 {
			sort.Strings(restore)
			txn := w.db.Begin("repair-restore")
			_ = publish(ctx, txn, restore, preSnap)
			txn.Abort()
		}
	}
	return out, aerr
}
