package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"cloudless/internal/jobs"
	"cloudless/internal/wal"
	"cloudless/internal/workspace"
)

// This file is the server half of daemon crash recovery (DESIGN.md S28).
// The durable pieces live below it — the workspace manager persists
// manifests and the job queue journals transitions — but only the server
// can rebuild a replayed job's work function, because the function closes
// over the workspace and the artifact store. RecoverJobs runs once at
// startup, after workspace.Manager.Recover and before the HTTP listener
// admits traffic.

// JobRecoveryReport summarizes a RecoverJobs pass.
type JobRecoveryReport struct {
	// Tenants is how many job journals were replayed.
	Tenants int
	// Restored counts every job rebuilt into the queue (all statuses).
	Restored int
	// Requeued counts jobs that were queued at the crash and will run.
	Requeued int
	// Resumed counts jobs that were mid-flight at the crash and were
	// re-enqueued through the workspace recovery path.
	Resumed int
	// Orphaned counts non-terminal jobs that could not be resumed (their
	// workspace is gone or their params no longer parse); they are restored
	// as failed so their IDs still resolve.
	Orphaned int
}

// RecoverJobs replays every tenant's job journal and rebuilds the queue:
// terminal jobs become history (a client re-polling a pre-crash job ID
// sees the real outcome, never a 404), queued jobs are re-enqueued, and
// jobs that were mid-flight are re-enqueued behind the workspace's apply
// recovery — the crashed run's journal is recovered first (in-doubt ops
// complete or revert under their original idempotency keys), then the
// job's own operation runs to a correct terminal state.
func (s *Server) RecoverJobs(ctx context.Context) (*JobRecoveryReport, error) {
	rep := &JobRecoveryReport{}
	store := s.queue.Store()
	if store == nil {
		return rep, nil
	}
	tenants, err := store.Tenants()
	if err != nil {
		return nil, fmt.Errorf("server: recover jobs: %w", err)
	}
	for _, tenant := range tenants {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		recs, err := store.Replay(tenant)
		if err != nil {
			s.log.Warn("job journal replay failed", "workspace", tenant, "err", err)
			continue
		}
		rep.Tenants++
		ws, wsErr := s.mgr.Get(tenant)
		for _, rec := range recs {
			restored, err := s.restoreJob(tenant, ws, wsErr, rec, rep)
			if err != nil {
				s.log.Warn("job restore failed", "workspace", tenant, "job", rec.ID, "err", err)
				continue
			}
			rep.Restored++
			if restored != nil {
				s.log.Info("job restored", "workspace", tenant, "job", rec.ID,
					"was", string(rec.Status), "now", string(restored.Snapshot().Status))
			}
		}
	}
	return rep, nil
}

// restoreJob rebuilds one replayed record in the queue.
func (s *Server) restoreJob(tenant string, ws *workspace.Workspace, wsErr error, rec jobs.StoredJob, rep *JobRecoveryReport) (*jobs.Job, error) {
	if rec.Status.Terminal() {
		return s.queue.Restore(rec, nil, "")
	}
	if wsErr != nil {
		rep.Orphaned++
		return s.queue.Restore(rec, nil, "workspace "+tenant+" no longer exists after daemon restart")
	}
	var req JobRequest
	if err := json.Unmarshal(rec.Params, &req); err != nil || req.Kind == "" {
		rep.Orphaned++
		return s.queue.Restore(rec, nil, "job parameters unreadable after daemon restart")
	}
	// Artifact references don't survive a restart (the artifact store is
	// in-memory): an apply pinned to a plan artifact replans instead. A
	// reconcile pinned to a drift artifact keeps the reference and fails
	// cleanly at run time — reconciling against a vanished report silently
	// re-scanned would act on data the user never saw.
	if req.PlanJob != "" {
		req.PlanJob = ""
	}
	fn, _, err := s.jobFn(tenant, ws, req)
	if err != nil {
		rep.Orphaned++
		return s.queue.Restore(rec, nil, "job parameters invalid after daemon restart: "+err.Error())
	}
	wasRunning := rec.Status == jobs.StatusRunning
	if req.Kind == "apply" || req.Kind == "destroy" {
		// Mutating kinds ride through apply-level recovery: if the daemon
		// died mid-apply the workspace has a stale run journal; recover it
		// first (completing or reverting in-doubt ops under the original
		// run's idempotency keys) so the re-driven operation starts from
		// reconciled state instead of failing with ErrJournalRecovered.
		inner := fn
		fn = func(ctx context.Context) (any, error) {
			if ws.HasStaleJournal() {
				if _, err := ws.Recover(ctx); err != nil {
					return nil, fmt.Errorf("recover crashed run before %s: %w", req.Kind, err)
				}
			}
			return inner(ctx)
		}
	}
	if wasRunning {
		rep.Resumed++
	} else {
		rep.Requeued++
	}
	return s.queue.Restore(rec, fn, "")
}

// ---- ACL persistence ----

// loadACLs restores workspace ACLs from ACLPath (missing file = fresh
// server). Without this, a daemon restart would orphan every workspace
// from the principals that created them.
func (s *Server) loadACLs() {
	if s.aclPath == "" {
		return
	}
	raw, err := os.ReadFile(s.aclPath)
	if err != nil {
		if !os.IsNotExist(err) {
			s.log.Warn("load acls", "err", err)
		}
		return
	}
	var acls map[string]map[string]bool
	if err := json.Unmarshal(raw, &acls); err != nil {
		s.log.Warn("load acls", "err", err)
		return
	}
	s.mu.Lock()
	s.acls = acls
	s.mu.Unlock()
}

// saveACLs persists the ACL map atomically. Best-effort: an ACL that fails
// to persist still works until the next restart, and the daemon logs it.
func (s *Server) saveACLs() {
	if s.aclPath == "" {
		return
	}
	s.mu.Lock()
	raw, err := json.MarshalIndent(s.acls, "", "  ")
	s.mu.Unlock()
	if err != nil {
		s.log.Warn("save acls", "err", err)
		return
	}
	if err := wal.WriteFileAtomic(s.aclPath, raw, 0o600); err != nil {
		s.log.Warn("save acls", "err", err)
	}
}
