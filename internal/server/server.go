// Package server is cloudlessd's HTTP/JSON control plane (DESIGN.md S27):
// an authenticated multi-tenant API over a workspace.Manager and a
// jobs.Queue. Bearer tokens map to principals; each workspace carries an
// ACL (creator + configured admins); every lifecycle operation runs as an
// async job with per-tenant fair scheduling; events stream per workspace
// via long-poll with watermark resume; and /metrics aggregates every
// workspace's registry under a `workspace` label.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudless/internal/drift"
	"cloudless/internal/events"
	"cloudless/internal/jobs"
	"cloudless/internal/plan"
	"cloudless/internal/telemetry"
	"cloudless/internal/workspace"
)

const (
	// maxBody bounds request bodies (sources included).
	maxBody = 4 << 20
	// maxEventWait / defaultEventWait bound the events long-poll, matching
	// the cloud sim's wire behaviour.
	maxEventWait = 60 * time.Second
	// artifactKeep bounds retained plan/drift artifacts per server.
	artifactKeep = 256
)

// Options configure New.
type Options struct {
	// Manager hosts the workspaces. Required.
	Manager *workspace.Manager
	// Queue runs the jobs. Required.
	Queue *jobs.Queue
	// Tokens maps bearer token -> principal. Empty disables auth entirely
	// (every request runs as principal "anonymous" with full access) —
	// meant for local development only.
	Tokens map[string]string
	// Admins lists principals that can access every workspace.
	Admins []string
	// Logger receives request-level logs (nil = slog default).
	Logger *slog.Logger
	// ACLPath persists workspace ACLs across restarts ("" keeps them
	// in-memory). cloudlessd points this at <data-dir>/acl.json.
	ACLPath string
}

// artifacts is a bounded store of job outputs that later jobs or GETs
// reference (plans for apply-by-reference, drift reports for reconcile).
// Entries are keyed by (workspace, job ID): job IDs are guessable sequence
// numbers, so a bare-ID lookup would let one tenant apply or reconcile
// another tenant's artifact.
type artifacts struct {
	mu    sync.Mutex
	plans map[string]*plan.Plan
	drift map[string]*drift.Report
	order []string
}

// artifactKey is unambiguous: workspace names can't contain "/"
// (workspace.ValidName) and job IDs are fixed-format.
func artifactKey(ws, jobID string) string { return ws + "/" + jobID }

func (a *artifacts) put(ws, jobID string, p *plan.Plan, d *drift.Report) {
	key := artifactKey(ws, jobID)
	a.mu.Lock()
	defer a.mu.Unlock()
	if p != nil {
		a.plans[key] = p
	}
	if d != nil {
		a.drift[key] = d
	}
	a.order = append(a.order, key)
	for len(a.order) > artifactKeep {
		old := a.order[0]
		a.order = a.order[1:]
		delete(a.plans, old)
		delete(a.drift, old)
	}
}

func (a *artifacts) getPlan(ws, jobID string) *plan.Plan {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.plans[artifactKey(ws, jobID)]
}

func (a *artifacts) getDrift(ws, jobID string) *drift.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drift[artifactKey(ws, jobID)]
}

// drop discards a deleted workspace's artifacts.
func (a *artifacts) drop(ws string) {
	prefix := artifactKey(ws, "")
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.order[:0]
	for _, key := range a.order {
		if strings.HasPrefix(key, prefix) {
			delete(a.plans, key)
			delete(a.drift, key)
			continue
		}
		kept = append(kept, key)
	}
	a.order = kept
}

// Server is the cloudlessd API.
type Server struct {
	mgr     *workspace.Manager
	queue   *jobs.Queue
	tokens  map[string]string
	admins  map[string]bool
	log     *slog.Logger
	art     *artifacts
	aclPath string

	mu   sync.Mutex
	acls map[string]map[string]bool // workspace -> allowed principals

	mux  *http.ServeMux
	http *http.Server
}

// New builds the API server.
func New(opts Options) *Server {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	s := &Server{
		mgr:     opts.Manager,
		queue:   opts.Queue,
		tokens:  opts.Tokens,
		admins:  map[string]bool{},
		log:     opts.Logger,
		art:     &artifacts{plans: map[string]*plan.Plan{}, drift: map[string]*drift.Report{}},
		acls:    map[string]map[string]bool{},
		aclPath: opts.ACLPath,
	}
	for _, a := range opts.Admins {
		s.admins[a] = true
	}
	s.loadACLs()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.auth(s.handleMetrics))
	mux.HandleFunc("GET /v1/workspaces", s.auth(s.handleListWorkspaces))
	mux.HandleFunc("POST /v1/workspaces", s.auth(s.handleCreateWorkspace))
	mux.HandleFunc("GET /v1/workspaces/{name}", s.auth(s.workspaceHandler(s.handleGetWorkspace)))
	mux.HandleFunc("DELETE /v1/workspaces/{name}", s.auth(s.workspaceHandler(s.handleDeleteWorkspace)))
	mux.HandleFunc("POST /v1/workspaces/{name}/jobs", s.auth(s.workspaceHandler(s.handleSubmitJob)))
	mux.HandleFunc("GET /v1/workspaces/{name}/jobs", s.auth(s.workspaceHandler(s.handleListJobs)))
	mux.HandleFunc("GET /v1/workspaces/{name}/jobs/{id}", s.auth(s.workspaceHandler(s.handleGetJob)))
	mux.HandleFunc("POST /v1/workspaces/{name}/jobs/{id}/cancel", s.auth(s.workspaceHandler(s.handleCancelJob)))
	mux.HandleFunc("GET /v1/workspaces/{name}/jobs/{id}/plan", s.auth(s.workspaceHandler(s.handlePlanArtifact)))
	mux.HandleFunc("GET /v1/workspaces/{name}/events", s.auth(s.workspaceHandler(s.handleEvents)))
	mux.HandleFunc("GET /v1/workspaces/{name}/state", s.auth(s.workspaceHandler(s.handleState)))
	mux.HandleFunc("GET /v1/workspaces/{name}/history", s.auth(s.workspaceHandler(s.handleHistory)))
	mux.HandleFunc("POST /v1/workspaces/{name}/reconciler", s.auth(s.workspaceHandler(s.handleSetReconciler)))
	mux.HandleFunc("GET /v1/workspaces/{name}/reconciler", s.auth(s.workspaceHandler(s.handleReconcilerStatus)))
	s.mux = mux
	return s
}

// Handler exposes the routed handler (httptest servers mount this).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.http = &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		// Write timeout must exceed the events long-poll ceiling.
		WriteTimeout: maxEventWait + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	err := s.http.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in flight-first order: stop accepting HTTP, stop the job
// queue (running jobs get ctx's budget), then drain-close every workspace.
func (s *Server) Shutdown(ctx context.Context) error {
	var first error
	if s.http != nil {
		if err := s.http.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	if err := s.queue.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	if err := s.mgr.CloseAll(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// ---- auth & ACLs ----

type principalKey struct{}

// auth resolves the bearer token to a principal and stashes it in the
// request context. With no tokens configured every request is admitted as
// "anonymous".
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		principal := "anonymous"
		if len(s.tokens) > 0 {
			h := r.Header.Get("Authorization")
			tok, ok := strings.CutPrefix(h, "Bearer ")
			if !ok || tok == "" {
				writeError(w, http.StatusUnauthorized, "missing bearer token")
				return
			}
			p, ok := s.tokens[tok]
			if !ok {
				writeError(w, http.StatusUnauthorized, "unknown token")
				return
			}
			principal = p
		}
		next(w, r.WithContext(context.WithValue(r.Context(), principalKey{}, principal)))
	}
}

func principalOf(r *http.Request) string {
	p, _ := r.Context().Value(principalKey{}).(string)
	return p
}

// allowed reports whether the principal can touch the workspace.
func (s *Server) allowed(principal, ws string) bool {
	if s.admins[principal] || len(s.tokens) == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acls[ws][principal]
}

// grant adds the principal to a workspace's ACL and persists the map.
func (s *Server) grant(principal, ws string) {
	s.mu.Lock()
	if s.acls[ws] == nil {
		s.acls[ws] = map[string]bool{}
	}
	s.acls[ws][principal] = true
	s.mu.Unlock()
	s.saveACLs()
}

// workspaceHandler resolves {name}, enforces the ACL, and hands the
// workspace to the inner handler.
func (s *Server) workspaceHandler(next func(http.ResponseWriter, *http.Request, string, *workspace.Workspace)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !s.allowed(principalOf(r), name) {
			writeError(w, http.StatusForbidden, "workspace access denied")
			return
		}
		ws, err := s.mgr.Get(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		next(w, r, name, ws)
	}
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "workspaces": s.mgr.Len(), "jobs_queued": s.queue.QueuedLen(),
	})
}

// handleMetrics aggregates workspace registries into one scrape, each
// point labeled with its workspace, plus process-wide queue gauges. The
// scrape is authenticated like every other route (tokens configured =>
// bearer required) and scoped by ACL: a tenant principal sees only its own
// workspaces' series; admins (and open servers) see all of them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	principal := principalOf(r)
	var all []telemetry.MetricPoint
	for _, name := range s.mgr.List() {
		if !s.allowed(principal, name) {
			continue
		}
		ws, err := s.mgr.Get(name)
		if err != nil {
			continue
		}
		reg := ws.Telemetry().Metrics()
		if reg == nil {
			continue
		}
		all = append(all, telemetry.Relabel(reg.Snapshot(), "workspace", name)...)
	}
	all = append(all,
		telemetry.MetricPoint{Name: "cloudless_jobs_queued", Kind: "gauge", Value: float64(s.queue.QueuedLen())},
		telemetry.MetricPoint{Name: "cloudless_jobs_window", Kind: "gauge", Value: s.queue.Gate().Window()},
		telemetry.MetricPoint{Name: "cloudless_workspaces", Kind: "gauge", Value: float64(s.mgr.Len())},
	)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, all)
}

func (s *Server) handleListWorkspaces(w http.ResponseWriter, r *http.Request) {
	principal := principalOf(r)
	var out []string
	for _, name := range s.mgr.List() {
		if s.allowed(principal, name) {
			out = append(out, name)
		}
	}
	if out == nil {
		out = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"workspaces": out})
}

func (s *Server) handleCreateWorkspace(w http.ResponseWriter, r *http.Request) {
	var req CreateWorkspaceRequest
	if !readJSON(w, r, &req) {
		return
	}
	if !workspace.ValidName(req.Name) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid workspace name %q", req.Name))
		return
	}
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, "sources are required")
		return
	}
	principal := principalOf(r)
	cfg := workspace.Config{
		Sources:      req.Sources,
		Vars:         toGoVars(req.Vars),
		Policies:     req.Policies,
		StateBackend: req.StateBackend,
		Principal:    req.Name,
		GuardApplies: req.GuardApplies,
		GuardCanary:  req.GuardCanary,
	}
	ws, err := s.mgr.Open(req.Name, cfg)
	if err != nil {
		var exists *workspace.ErrWorkspaceExists
		if errors.As(err, &exists) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.grant(principal, req.Name)
	s.log.Info("workspace created", "workspace", req.Name, "principal", principal)
	writeJSON(w, http.StatusCreated, s.info(req.Name, ws, false))
}

func (s *Server) info(name string, ws *workspace.Workspace, verbose bool) WorkspaceInfo {
	inf := WorkspaceInfo{Name: name, Serial: ws.DB().Serial(), Resources: ws.DB().Len()}
	if verbose {
		inf.Instances = ws.Instances()
		inf.Outputs = ws.DisplayOutputs()
	}
	return inf
}

func (s *Server) handleGetWorkspace(w http.ResponseWriter, r *http.Request, name string, ws *workspace.Workspace) {
	writeJSON(w, http.StatusOK, s.info(name, ws, true))
}

func (s *Server) handleDeleteWorkspace(w http.ResponseWriter, r *http.Request, name string, _ *workspace.Workspace) {
	// Refuse while jobs are in flight: deletion used to race running
	// applies, yanking the engine out from under them. The typed busy error
	// tells the client to cancel or drain first.
	if active := s.queue.ActiveForTenant(name); active > 0 {
		busy := &workspace.ErrWorkspaceBusy{Name: name, Active: active}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, busy.Error())
		return
	}
	// Delete (not Close): the manifest, journals, and durable state are
	// purged so neither a restart nor a recreated workspace with the same
	// name resurrects the old tenant.
	if err := s.mgr.Delete(r.Context(), name); err != nil {
		var closed *workspace.ErrClosed
		if errors.As(err, &closed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Drop the workspace's job history, ACL, and artifacts with it: a later
	// workspace reusing the name must not inherit the old one's principals,
	// plans, or job journal.
	if err := s.queue.DropTenant(name); err != nil {
		s.log.Warn("drop tenant jobs", "workspace", name, "err", err)
	}
	s.mu.Lock()
	delete(s.acls, name)
	s.mu.Unlock()
	s.saveACLs()
	s.art.drop(name)
	s.log.Info("workspace deleted", "workspace", name)
	writeJSON(w, http.StatusOK, map[string]any{"closed": name})
}

// handleSubmitJob queues one lifecycle operation. The job's tenant is the
// workspace, so the queue's fair scheduler arbitrates between workspaces.
// A request carrying an idempotency key dedups: resubmitting the same key
// (after a timeout, or after a daemon restart replayed the job) returns
// the original job — with its result when already terminal — instead of
// running the work twice.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request, name string, ws *workspace.Workspace) {
	var req JobRequest
	if !readJSON(w, r, &req) {
		return
	}
	fn, cost, err := s.jobFn(name, ws, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Persist the wire request with the job so startup recovery can rebuild
	// this same fn for jobs that never got to run.
	params, _ := json.Marshal(req)
	job, err := s.queue.Submit(jobs.Request{
		Tenant: name, Kind: req.Kind, Cost: cost,
		IdemKey: req.IdemKey, Params: params, Fn: fn,
	})
	if err != nil {
		var full *jobs.ErrQueueFull
		if errors.As(err, &full) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	st := JobStatus{View: job.Snapshot()}
	if res, _ := job.Result(); res != nil {
		st.Result = res // idempotent resubmit of a finished job
	}
	writeJSON(w, http.StatusAccepted, st)
}

// jobFn builds the work function for a job request. Each fn returns the
// kind's wire summary, so job results marshal cleanly.
func (s *Server) jobFn(name string, ws *workspace.Workspace, req JobRequest) (func(ctx context.Context) (any, error), float64, error) {
	switch req.Kind {
	case "plan":
		return func(ctx context.Context) (any, error) {
			p, err := planFor(ctx, ws, req.Targets)
			if err != nil {
				return nil, err
			}
			// The full plan is retained server-side as an artifact: GETtable
			// as a diff, and consumable by a later apply via plan_job.
			s.art.put(name, jobs.JobID(ctx), p, nil)
			return summarizePlan(p), nil
		}, 1, nil
	case "apply":
		cost := float64(len(ws.Instances()))
		if cost < 1 {
			cost = 1
		}
		planJob := req.PlanJob
		return func(ctx context.Context) (any, error) {
			var p *plan.Plan
			if planJob != "" {
				if p = s.art.getPlan(name, planJob); p == nil {
					return nil, fmt.Errorf("plan artifact %s not found (expired or never a plan job)", planJob)
				}
			} else {
				var err error
				if p, err = planFor(ctx, ws, req.Targets); err != nil {
					return nil, err
				}
			}
			res, diagnoses, err := ws.Apply(ctx, p, workspace.ApplyOptions{Concurrency: req.Concurrency})
			if res == nil {
				return nil, err
			}
			return summarizeApply(res, diagnoses, ws.DB().Serial(), ws.DisplayOutputs()), err
		}, cost, nil
	case "destroy":
		cost := float64(ws.DB().Len())
		if cost < 1 {
			cost = 1
		}
		return func(ctx context.Context) (any, error) {
			res, err := ws.Destroy(ctx)
			if res == nil {
				return nil, err
			}
			return summarizeApply(res, nil, ws.DB().Serial(), nil), err
		}, cost, nil
	case "drift":
		return func(ctx context.Context) (any, error) {
			rep, err := ws.WatchDrift(ctx)
			if err != nil {
				return nil, err
			}
			s.art.put(name, jobs.JobID(ctx), nil, rep)
			return summarizeDrift(rep), nil
		}, 1, nil
	case "scan":
		return func(ctx context.Context) (any, error) {
			rep, err := ws.ScanDrift(ctx)
			if err != nil {
				return nil, err
			}
			s.art.put(name, jobs.JobID(ctx), nil, rep)
			return summarizeDrift(rep), nil
		}, 2, nil
	case "reconcile":
		action, ok := map[string]drift.Action{
			"adopt": drift.Adopt, "revert": drift.Revert, "notify": drift.Notify,
		}[req.Action]
		if !ok {
			return nil, 0, fmt.Errorf("unknown reconcile action %q (adopt|revert|notify)", req.Action)
		}
		driftJob := req.DriftJob
		if driftJob == "" {
			return nil, 0, errors.New("reconcile requires drift_job (a finished drift/scan job id)")
		}
		return func(ctx context.Context) (any, error) {
			rep := s.art.getDrift(name, driftJob)
			if rep == nil {
				return nil, fmt.Errorf("drift artifact %s not found (expired or never a drift job)", driftJob)
			}
			res, err := ws.ReconcileDrift(ctx, rep, action)
			if err != nil {
				return nil, err
			}
			sum := ReconcileSummary{Adopted: res.Adopted, Reverted: res.Reverted, Notified: res.Notified}
			if len(res.Errors) > 0 {
				sum.Errors = map[string]string{}
				for k, e := range res.Errors {
					sum.Errors[k] = e.Error()
				}
			}
			return sum, nil
		}, 1, nil
	case "rollback":
		// Planned here as well as in the job: a serial outside the time
		// machine's window is the submitter's error (the message names the
		// window), and the pending changes are the job's cost.
		if req.ToSerial <= 0 {
			return nil, 0, errors.New("rollback requires to_serial (a serial the workspace's history lists)")
		}
		p, err := ws.PlanRollback(req.ToSerial)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context) (any, error) {
			p, err := ws.PlanRollback(req.ToSerial)
			if err != nil {
				return nil, err
			}
			sum := RollbackSummary{ToSerial: req.ToSerial, PlanSummary: summarizePlan(p), DryRun: req.DryRun}
			if !req.DryRun && p.PendingCount() > 0 {
				// A crashed run's journal is recovered first and fails this
				// job with *ErrJournalRecovered: the plan above predates the
				// recovery, and the client submits again.
				if err := ws.ExecuteRollback(ctx, p); err != nil {
					return nil, err
				}
			}
			sum.Serial = ws.DB().Serial()
			return sum, nil
		}, max(1, float64(p.PendingCount())), nil
	case "recover":
		return func(ctx context.Context) (any, error) {
			rep, err := ws.Recover(ctx)
			if err != nil {
				return nil, err
			}
			return summarizeRecover(rep), nil
		}, 1, nil
	default:
		return nil, 0, fmt.Errorf("unknown job kind %q (plan|apply|destroy|drift|scan|reconcile|rollback|recover)", req.Kind)
	}
}

// planFor is every plan a job makes: validate the configuration first — a
// plan of an invalid one fails with its findings — then plan the impact scope
// of targets, or everything through the workspace's replan cache.
func planFor(ctx context.Context, ws *workspace.Workspace, targets []string) (*plan.Plan, error) {
	if res := ws.Validate(); res.HasErrors() {
		msgs := make([]string, 0, len(res.Findings))
		for _, f := range res.Errors() {
			msgs = append(msgs, f.Error())
		}
		return nil, fmt.Errorf("validation failed; not planning:\n  %s", strings.Join(msgs, "\n  "))
	}
	if len(targets) > 0 {
		return ws.PlanIncremental(ctx, targets...)
	}
	return ws.Replan(ctx)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request, name string, _ *workspace.Workspace) {
	views := s.queue.List(name)
	if views == nil {
		views = []jobs.View{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// jobForWorkspace fetches a job and checks it belongs to the workspace (a
// tenant must not read another tenant's jobs through its own ACL).
func (s *Server) jobForWorkspace(w http.ResponseWriter, name, id string) (*jobs.Job, bool) {
	job, ok := s.queue.Get(id)
	if !ok || job.Snapshot().Tenant != name {
		writeError(w, http.StatusNotFound, fmt.Sprintf("job %s not found in workspace %s", id, name))
		return nil, false
	}
	return job, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request, name string, _ *workspace.Workspace) {
	job, ok := s.jobForWorkspace(w, name, r.PathValue("id"))
	if !ok {
		return
	}
	// ?wait_ms long-polls for completion.
	if ms, _ := strconv.Atoi(r.URL.Query().Get("wait_ms")); ms > 0 {
		wait := time.Duration(ms) * time.Millisecond
		if wait > maxEventWait {
			wait = maxEventWait
		}
		wctx, cancel := context.WithTimeout(r.Context(), wait)
		_, _ = job.Wait(wctx)
		cancel()
	}
	st := JobStatus{View: job.Snapshot()}
	if res, _ := job.Result(); res != nil {
		st.Result = res
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request, name string, _ *workspace.Workspace) {
	job, ok := s.jobForWorkspace(w, name, r.PathValue("id"))
	if !ok {
		return
	}
	s.queue.Cancel(job.ID())
	writeJSON(w, http.StatusOK, JobStatus{View: job.Snapshot()})
}

// handlePlanArtifact serves the stored diff artifact of a plan job.
func (s *Server) handlePlanArtifact(w http.ResponseWriter, r *http.Request, name string, _ *workspace.Workspace) {
	job, ok := s.jobForWorkspace(w, name, r.PathValue("id"))
	if !ok {
		return
	}
	p := s.art.getPlan(name, job.ID())
	if p == nil {
		writeError(w, http.StatusNotFound, "no plan artifact for this job (not a plan job, or expired)")
		return
	}
	writeJSON(w, http.StatusOK, summarizePlan(p))
}

// handleEvents long-polls the workspace's event bus with watermark resume:
// ?since=N returns events with Seq > N, waiting up to ?wait_ms for the
// first one. Subscribe-then-replay makes the handoff gapless.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, name string, ws *workspace.Workspace) {
	q := r.URL.Query()
	since, _ := strconv.ParseInt(q.Get("since"), 10, 64)
	wait := time.Duration(0)
	if ms, err := strconv.Atoi(q.Get("wait_ms")); err == nil && ms > 0 {
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxEventWait {
			wait = maxEventWait
		}
	}
	bus := ws.Events()
	// Watermark integrity: the replay ring is in-memory, so a client's
	// watermark can become unresumable in two ways. After a daemon restart
	// sequence numbers start over — a since above the bus's current head
	// would otherwise long-poll forever (every new event is "old"); signal
	// a restart gap and re-anchor at 0. When the ring has overflowed past
	// since, the skipped events are gone; signal an overflow gap and serve
	// what remains. Either way the response says so with a typed marker
	// instead of silently restarting the sequence.
	var gap *ResumeGap
	if last := bus.LastSeq(); since > last {
		gap = &ResumeGap{Reason: "restart", Since: since, Oldest: bus.OldestSeq()}
		since = 0
	} else if oldest := bus.OldestSeq(); since > 0 && oldest > since+1 {
		gap = &ResumeGap{Reason: "overflow", Since: since, Oldest: oldest}
	}
	var evs []events.Event
	if wait > 0 && gap == nil {
		sub := bus.Subscribe(events.Filter{}, 0)
		defer sub.Close()
		evs = bus.Since(since)
		if len(evs) == 0 {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			select {
			case <-sub.C():
				// Small linger so one response batches a burst instead of
				// one round-trip per event.
				time.Sleep(5 * time.Millisecond)
				evs = bus.Since(since)
			case <-timer.C:
			case <-r.Context().Done():
				return
			}
		}
	} else {
		evs = bus.Since(since)
	}
	page := EventsPage{Events: make([]WireEvent, 0, len(evs)), Next: since, Gap: gap}
	for _, e := range evs {
		page.Events = append(page.Events, WireEvent(e))
		if e.Seq > page.Next {
			page.Next = e.Seq
		}
	}
	writeJSON(w, http.StatusOK, page)
}

// handleState serves the workspace's golden state (the state-file JSON).
func (s *Server) handleState(w http.ResponseWriter, _ *http.Request, name string, ws *workspace.Workspace) {
	raw, err := ws.DB().Snapshot().Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// handleHistory lists the serials the workspace's time machine can read —
// the targets a rollback job accepts.
func (s *Server) handleHistory(w http.ResponseWriter, _ *http.Request, _ string, ws *workspace.Workspace) {
	writeJSON(w, http.StatusOK, map[string]any{"commits": ws.DB().History()})
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg, Code: code})
}

// readJSON decodes a bounded request body, writing a 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "decode body: "+err.Error())
		return false
	}
	return true
}
