package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"time"

	"cloudless/internal/reconcile"
	"cloudless/internal/workspace"
)

// This file is the control-plane surface of continuous reconciliation
// (DESIGN.md S29): enable/disable + status endpoints per workspace, the
// checkpoint plumbing that journals the controller's watermark in the jobs
// store, and the startup pass that restarts enabled controllers after a
// daemon restart so they resume from the journaled watermark instead of
// rescanning.

// ReconcilerRequest enables or disables a workspace's reconciler. The
// controller's timing is fixed (reconcile.Debounce and its siblings) except
// for the safety-net period: FullScanEveryMs 0 takes
// reconcile.DefaultFullScanEvery, < 0 disables the periodic full scan. A
// request carrying one of the knob fields older clients sent is accepted and
// the field ignored.
type ReconcilerRequest struct {
	Enabled bool `json:"enabled"`
	// Mode is "repair" (default) or "detect".
	Mode            string `json:"mode,omitempty"`
	FullScanEveryMs int    `json:"full_scan_every_ms,omitempty"`
}

// ReconcilerStatus is the wire form of a controller snapshot.
type ReconcilerStatus struct {
	Workspace string `json:"workspace"`
	reconcile.Status
}

// handleSetReconciler enables or disables the workspace's reconciler. The
// decision is durable: it rides the jobs journal, so a restarted daemon
// restarts enabled controllers (RecoverReconcilers) at their journaled
// watermark.
func (s *Server) handleSetReconciler(w http.ResponseWriter, r *http.Request, name string, ws *workspace.Workspace) {
	var req ReconcilerRequest
	if !readJSON(w, r, &req) {
		return
	}
	if !req.Enabled {
		c := ws.Reconciler()
		var wm int64
		if c != nil {
			wm = c.Watermark()
		}
		if err := ws.StopReconciler(r.Context()); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.saveReconcilerCheckpoint(name, reconcile.Checkpoint{Enabled: false, Watermark: wm})
		s.log.Info("reconciler disabled", "workspace", name)
		writeJSON(w, http.StatusOK, ReconcilerStatus{Workspace: name})
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = reconcile.ModeRepair
	}
	// A fresh enable anchors at the activity-log tail: history before the
	// operator turned reconciliation on is not missed drift. Resuming from
	// a journaled watermark is the restart path (RecoverReconcilers).
	c, err := s.startReconciler(name, ws, mode, -1, time.Duration(req.FullScanEveryMs)*time.Millisecond)
	if err != nil {
		if ws.Reconciler() != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.log.Info("reconciler enabled", "workspace", name, "mode", mode)
	writeJSON(w, http.StatusOK, ReconcilerStatus{Workspace: name, Status: c.Status()})
}

// handleReconcilerStatus reports the controller's state, including the
// per-address state machine. A workspace with no controller reports
// enabled=false rather than a 404, so status polls are unconditional.
func (s *Server) handleReconcilerStatus(w http.ResponseWriter, _ *http.Request, name string, ws *workspace.Workspace) {
	out := ReconcilerStatus{Workspace: name}
	if c := ws.Reconciler(); c != nil {
		out.Status = c.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// startReconciler starts a controller whose checkpoints persist through the
// jobs journal under this workspace's tenant.
func (s *Server) startReconciler(name string, ws *workspace.Workspace, mode string, watermark int64, fullScanEvery time.Duration) (*reconcile.Controller, error) {
	return ws.StartReconciler(workspace.ReconcilerOptions{
		Mode:          mode,
		Watermark:     watermark,
		FullScanEvery: fullScanEvery,
		OnCheckpoint: func(wm int64) {
			s.saveReconcilerCheckpoint(name, reconcile.Checkpoint{
				Enabled: true, Mode: mode, Watermark: wm, FullScanEvery: fullScanEvery,
			})
		},
	})
}

// saveReconcilerCheckpoint persists one checkpoint; with no durable store
// (no -data-dir) reconciliation still works, it just doesn't survive
// restarts.
func (s *Server) saveReconcilerCheckpoint(name string, cp reconcile.Checkpoint) {
	store := s.queue.Store()
	if store == nil {
		return
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		return
	}
	if err := store.SaveReconciler(name, raw); err != nil {
		s.log.Warn("save reconciler checkpoint", "workspace", name, "err", err)
	}
}

// ReconcilerRecoveryReport summarizes a RecoverReconcilers pass.
type ReconcilerRecoveryReport struct {
	// Resumed counts controllers restarted at their journaled watermark.
	Resumed int
	// Orphaned counts enabled checkpoints whose workspace no longer exists.
	Orphaned int
}

// RecoverReconcilers restarts every workspace reconciler whose journaled
// checkpoint says it was enabled, resuming each from its acknowledged
// watermark — no rescan, no replay of work the previous life completed, and
// drift that happened while the daemon was down is picked up by the
// activity tail past the watermark. Runs at startup after RecoverJobs.
func (s *Server) RecoverReconcilers(ctx context.Context) (*ReconcilerRecoveryReport, error) {
	rep := &ReconcilerRecoveryReport{}
	store := s.queue.Store()
	if store == nil {
		return rep, nil
	}
	tenants, err := store.Tenants()
	if err != nil {
		return nil, err
	}
	for _, tenant := range tenants {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		raw, err := store.LoadReconciler(tenant)
		if err != nil || raw == nil {
			continue
		}
		var cp reconcile.Checkpoint
		if json.Unmarshal(raw, &cp) != nil || !cp.Enabled {
			continue
		}
		ws, err := s.mgr.Get(tenant)
		if err != nil {
			rep.Orphaned++
			s.log.Warn("reconciler checkpoint orphaned", "workspace", tenant, "err", err)
			continue
		}
		if _, err := s.startReconciler(tenant, ws, cp.Mode, cp.Watermark, cp.FullScanEvery); err != nil {
			s.log.Warn("reconciler restart failed", "workspace", tenant, "err", err)
			continue
		}
		rep.Resumed++
		s.log.Info("reconciler resumed", "workspace", tenant,
			"mode", cp.Mode, "watermark", cp.Watermark)
	}
	return rep, nil
}

// ---- client ----

// SetReconciler enables or disables a workspace's reconciler.
func (c *Client) SetReconciler(ctx context.Context, ws string, req ReconcilerRequest) (ReconcilerStatus, error) {
	var out ReconcilerStatus
	err := c.do(ctx, http.MethodPost, "/v1/workspaces/"+url.PathEscape(ws)+"/reconciler", req, &out)
	return out, err
}

// ReconcilerStatus fetches a workspace's reconciler state.
func (c *Client) ReconcilerStatus(ctx context.Context, ws string) (ReconcilerStatus, error) {
	var out ReconcilerStatus
	err := c.do(ctx, http.MethodGet, "/v1/workspaces/"+url.PathEscape(ws)+"/reconciler", nil, &out)
	return out, err
}
