package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/statedb"
	"cloudless/internal/workspace"
)

// durableStack is one daemon "process": manager + durable queue + server
// over a shared data dir and cloud. Building a second stack over the same
// dir and cloud models a restart.
type durableStack struct {
	srv    *server.Server
	ts     *httptest.Server
	client *server.Client
	queue  *jobs.Queue
	mgr    *workspace.Manager
}

func newDurableStack(t *testing.T, dir string, sim *cloud.Sim) *durableStack {
	t.Helper()
	store, err := jobs.OpenStore(dir, jobs.StoreOptions{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	mgr := workspace.NewManager(workspace.ManagerOptions{Root: dir, Cloud: sim, DefaultBackend: "wal"})
	queue := jobs.New(jobs.Options{Workers: 4, Store: store})
	srv := server.New(server.Options{
		Manager: mgr, Queue: queue,
		ACLPath: filepath.Join(dir, "acl.json"),
	})
	ts := httptest.NewServer(srv.Handler())
	return &durableStack{srv: srv, ts: ts, client: server.NewClient(ts.URL, "", nil), queue: queue, mgr: mgr}
}

// stop drain-closes the stack, like a graceful daemon shutdown.
func (d *durableStack) stop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d.ts.Close()
}

// recover replays what cloudlessd's startup does before the listener
// admits traffic: workspace recovery then job recovery.
func (d *durableStack) recover(t *testing.T) *server.JobRecoveryReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := d.mgr.Recover(ctx); err != nil {
		t.Fatalf("manager recover: %v", err)
	}
	rep, err := d.srv.RecoverJobs(ctx)
	if err != nil {
		t.Fatalf("RecoverJobs: %v", err)
	}
	return rep
}

func newDurableSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

// TestIdempotentResubmitConformance: submitting the same (tenant, key)
// twice returns the original job — same ID, original result — and the
// in-process queue and the HTTP surface agree on that contract, including
// across a daemon restart.
func TestIdempotentResubmitConformance(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sim := newDurableSim()
	d := newDurableStack(t, dir, sim)

	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "conf", Sources: tenantSource("conf"),
	}); err != nil {
		t.Fatal(err)
	}

	// HTTP path: first submit runs the job, the resubmit with the same key
	// returns the same ID and the original (finished) result inline.
	first, err := d.client.SubmitJob(ctx, "conf", server.JobRequest{Kind: "apply", IdemKey: "apply-1"})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.client.WaitJob(ctx, "conf", first.ID)
	if err != nil || fin.Status != jobs.StatusSucceeded {
		t.Fatalf("first apply: %v %s %s", err, fin.Status, fin.Err)
	}
	again, err := d.client.SubmitJob(ctx, "conf", server.JobRequest{Kind: "apply", IdemKey: "apply-1"})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID {
		t.Fatalf("HTTP resubmit created job %s, want original %s", again.ID, first.ID)
	}
	if again.Status != jobs.StatusSucceeded || again.Result == nil {
		t.Fatalf("HTTP resubmit: status=%s result=%v, want succeeded with original result", again.Status, again.Result)
	}

	// In-process path: the queue's own dedup behaves identically — the
	// HTTP layer adds nothing to the contract.
	j1, err := d.queue.Submit(jobs.Request{Tenant: "conf", Kind: "plan", IdemKey: "sim-1",
		Fn: func(ctx context.Context) (any, error) { return "r1", nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	j2, err := d.queue.Submit(jobs.Request{Tenant: "conf", Kind: "plan", IdemKey: "sim-1",
		Fn: func(ctx context.Context) (any, error) { return "r2", nil }})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() != j1.ID() {
		t.Fatalf("queue resubmit created job %s, want original %s", j2.ID(), j1.ID())
	}
	if res, err := j2.Result(); err != nil || res != "r1" {
		t.Fatalf("queue resubmit result = %v, %v; want original \"r1\"", res, err)
	}

	// Across a restart: the journaled idem key still dedups, and the
	// original job ID still resolves with its result.
	d.stop(t)
	d2 := newDurableStack(t, dir, sim)
	defer d2.stop(t)
	d2.recover(t)

	got, err := d2.client.GetJob(ctx, "conf", first.ID, 0)
	if err != nil {
		t.Fatalf("pre-restart job ID %s: %v, want it to resolve", first.ID, err)
	}
	if got.Status != jobs.StatusSucceeded {
		t.Fatalf("pre-restart job %s: %s, want succeeded", first.ID, got.Status)
	}
	resub, err := d2.client.SubmitJob(ctx, "conf", server.JobRequest{Kind: "apply", IdemKey: "apply-1"})
	if err != nil {
		t.Fatal(err)
	}
	if resub.ID != first.ID {
		t.Fatalf("post-restart resubmit created %s, want original %s", resub.ID, first.ID)
	}
}

// TestEventsGapAcrossRestart documents the watermark contract over a
// daemon restart: the in-memory event ring dies with the process, so a
// client resuming from a pre-restart watermark gets a typed resume-gap
// marker (reason "restart") instead of silently missing events, and the
// page restarts it from the stream's beginning.
func TestEventsGapAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sim := newDurableSim()
	d := newDurableStack(t, dir, sim)

	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "ev", Sources: tenantSource("ev"),
	}); err != nil {
		t.Fatal(err)
	}
	mustJob(t, d.client, "ev", server.JobRequest{Kind: "apply"})

	// Drain the live stream to its watermark; no gap on a live resume.
	page, err := d.client.Events(ctx, "ev", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) == 0 || page.Gap != nil {
		t.Fatalf("live stream: %d events, gap=%v; want events and no gap", len(page.Events), page.Gap)
	}
	watermark := page.Next

	d.stop(t)
	d2 := newDurableStack(t, dir, sim)
	defer d2.stop(t)
	d2.recover(t)

	// Resuming from the old watermark: the fresh bus is behind it, so the
	// page carries the typed gap and restarts from the beginning.
	page2, err := d2.client.Events(ctx, "ev", watermark, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page2.Gap == nil {
		t.Fatalf("resume from pre-restart watermark %d: no gap marker", watermark)
	}
	if page2.Gap.Reason != "restart" || page2.Gap.Since != watermark {
		t.Fatalf("gap = %+v, want reason=restart since=%d", page2.Gap, watermark)
	}

	// The marker is one-shot: acting on it (resume from the page's Next)
	// continues gap-free, and post-restart events flow normally.
	mustJob(t, d2.client, "ev", server.JobRequest{Kind: "apply"})
	page3, err := d2.client.Events(ctx, "ev", page2.Next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page3.Gap != nil {
		t.Fatalf("post-recovery resume: unexpected gap %+v", page3.Gap)
	}
	if len(page3.Events) == 0 {
		t.Fatal("post-recovery resume: no events from the new process")
	}
}

// TestDeleteWorkspaceBusy: DELETE on a workspace with in-flight jobs is
// refused with 409 + Retry-After instead of racing the job; once the job
// finishes the delete proceeds and the tenant's job history goes with it.
func TestDeleteWorkspaceBusy(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sim := newDurableSim()
	d := newDurableStack(t, dir, sim)
	defer d.stop(t)

	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "busy", Sources: tenantSource("busy"),
	}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	j, err := d.queue.Submit(jobs.Request{Tenant: "busy", Kind: "plan",
		Fn: func(ctx context.Context) (any, error) { <-release; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}

	// The delete client must not paper over the 409 by retrying it away.
	var apiErr *server.APIError
	err = server.NewClient(d.ts.URL, "", nil).WithRetries(0, 0).DeleteWorkspace(ctx, "busy")
	if !errors.As(err, &apiErr) || apiErr.Code != 409 {
		t.Fatalf("delete with in-flight job: %v, want 409", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("busy delete carries no Retry-After: %+v", apiErr)
	}

	close(release)
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.client.DeleteWorkspace(ctx, "busy"); err != nil {
		t.Fatalf("delete after drain: %v", err)
	}
	if _, err := d.client.GetJob(ctx, "busy", j.ID(), 0); !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("job of deleted workspace: %v, want 404", err)
	}
}

// TestRollbackJobAcrossRestart: the daemon reaches the time machine. History
// lists the engine's serials, a rollback job plans (dry_run) or plans and
// executes through the workspace's one write path, a serial outside the
// window is refused at submit with the window in the message — and because
// the engine's window survives a reopen, all of it still holds after a
// restart.
func TestRollbackJobAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sim := newDurableSim()
	d := newDurableStack(t, dir, sim)
	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "rb", Sources: tenantSource("rb"),
	}); err != nil {
		t.Fatal(err)
	}
	applied, err := server.ResultAs[server.ApplySummary](mustJob(t, d.client, "rb", server.JobRequest{Kind: "apply"}))
	if err != nil {
		t.Fatal(err)
	}
	destroyed, err := server.ResultAs[server.ApplySummary](mustJob(t, d.client, "rb", server.JobRequest{Kind: "destroy"}))
	if err != nil {
		t.Fatal(err)
	}
	if sim.TotalResources() != 0 || destroyed.Serial <= applied.Serial {
		t.Fatalf("after apply+destroy: %d resources, serials %d then %d", sim.TotalResources(), applied.Serial, destroyed.Serial)
	}

	before, err := d.client.History(ctx, "rb")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[int]statedb.CommitInfo{}
	for _, c := range before {
		listed[c.Serial] = c
	}
	if a, x := listed[applied.Serial], listed[destroyed.Serial]; a.Desc != "apply" || a.Resources != 4 || x.Desc != "destroy" || x.Resources != 0 {
		t.Fatalf("history = %+v, want the apply at %d with 4 resources and the destroy at %d with none", before, applied.Serial, destroyed.Serial)
	}

	dry, err := server.ResultAs[server.RollbackSummary](mustJob(t, d.client, "rb",
		server.JobRequest{Kind: "rollback", ToSerial: applied.Serial, DryRun: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !dry.DryRun || dry.Pending() != 4 || dry.Serial != destroyed.Serial || sim.TotalResources() != 0 {
		t.Errorf("dry run = %+v with %d resources in the cloud, want a 4-step plan and nothing touched", dry, sim.TotalResources())
	}

	var apiErr *server.APIError
	wantWindow := fmt.Sprintf("window [%d, %d]", before[0].Serial, destroyed.Serial)
	for _, serial := range []int{0, 9999} {
		_, err := d.client.SubmitJob(ctx, "rb", server.JobRequest{Kind: "rollback", ToSerial: serial})
		if !errors.As(err, &apiErr) || apiErr.Code != 400 {
			t.Errorf("rollback to serial %d: %v, want a 400", serial, err)
		} else if serial != 0 && !strings.Contains(apiErr.Message, wantWindow) {
			t.Errorf("rollback to serial %d refused with %q, want it to name the %s", serial, apiErr.Message, wantWindow)
		}
	}

	d.stop(t)
	d2 := newDurableStack(t, dir, sim)
	defer d2.stop(t)
	d2.recover(t)
	after, err := d2.client.History(ctx, "rb")
	if err != nil || !slices.Equal(after, before) {
		t.Fatalf("history after the restart = %+v, %v\nwant %+v", after, err, before)
	}
	done, err := server.ResultAs[server.RollbackSummary](mustJob(t, d2.client, "rb",
		server.JobRequest{Kind: "rollback", ToSerial: applied.Serial}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := d2.client.State(ctx, "rb")
	if err != nil {
		t.Fatal(err)
	}
	if done.Serial != destroyed.Serial+1 || st.Serial != done.Serial || st.Len() != 4 || sim.TotalResources() != 4 {
		t.Errorf("rollback = %+v; state at serial %d holds %d resources, the cloud %d; want 4 and 4 at serial %d",
			done, st.Serial, st.Len(), sim.TotalResources(), destroyed.Serial+1)
	}
	p, err := server.ResultAs[server.PlanSummary](mustJob(t, d2.client, "rb", server.JobRequest{Kind: "plan"}))
	if err != nil || p.Pending() != 0 {
		t.Errorf("plan after the rollback = %+v, %v; want a no-op", p, err)
	}
	scan, err := server.ResultAs[server.DriftSummary](mustJob(t, d2.client, "rb", server.JobRequest{Kind: "scan"}))
	if err != nil || len(scan.Items) != 0 {
		t.Errorf("scan after the rollback = %+v, %v; want no drift", scan, err)
	}
}
