package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/workspace"
)

func tenantSource(tenant string) map[string]string {
	return map[string]string{"main.ccl": fmt.Sprintf(`
resource "aws_vpc" "net" {
  name       = "net-%[1]s"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.net.id
  cidr_block = cidrsubnet(aws_vpc.net.cidr_block, 8, 1)
}
resource "aws_network_interface" "web" {
  count     = 2
  name      = "web-nic-%[1]s-${count.index}"
  subnet_id = aws_subnet.app.id
}
output "vpc_id" { value = aws_vpc.net.id }
`, tenant)}
}

// newTestServer wires a full server (manager + queue + sim cloud) behind an
// httptest listener and returns per-token clients.
func newTestServer(t *testing.T, tokens map[string]string, admins []string) (*server.Server, func(token string) *server.Client) {
	t.Helper()
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	mgr := workspace.NewManager(workspace.ManagerOptions{Cloud: cloud.NewSim(opts)})
	queue := jobs.New(jobs.Options{Workers: 4})
	srv := server.New(server.Options{Manager: mgr, Queue: queue, Tokens: tokens, Admins: admins})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, func(token string) *server.Client {
		return server.NewClient(ts.URL, token, nil)
	}
}

func mustJob(t *testing.T, cl *server.Client, ws string, req server.JobRequest) server.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := cl.SubmitJob(ctx, ws, req)
	if err != nil {
		t.Fatalf("%s submit %s: %v", ws, req.Kind, err)
	}
	st, err = cl.WaitJob(ctx, ws, st.ID)
	if err != nil {
		t.Fatalf("%s wait %s: %v", ws, req.Kind, err)
	}
	if st.Status != jobs.StatusSucceeded {
		t.Fatalf("%s %s job %s: %s (%s)", ws, req.Kind, st.ID, st.Status, st.Err)
	}
	return st
}

// TestServerAuthAndTenantIsolation: bearer tokens resolve principals,
// non-members are refused with 401/403, tenants cannot see each other's
// workspaces, jobs, or state, and admins can see everything.
func TestServerAuthAndTenantIsolation(t *testing.T) {
	_, client := newTestServer(t,
		map[string]string{"tok-a": "alice", "tok-b": "bob", "tok-r": "root"},
		[]string{"root"})
	ctx := context.Background()
	alice, bob, admin := client("tok-a"), client("tok-b"), client("tok-r")

	// Unauthenticated and wrong-token requests bounce.
	var apiErr *server.APIError
	if _, err := client("").ListWorkspaces(ctx); !errors.As(err, &apiErr) || apiErr.Code != 401 {
		t.Fatalf("no token: got %v, want 401", err)
	}
	if _, err := client("tok-x").ListWorkspaces(ctx); !errors.As(err, &apiErr) || apiErr.Code != 401 {
		t.Fatalf("bad token: got %v, want 401", err)
	}

	if _, err := alice.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "a1", Sources: tenantSource("a1"),
	}); err != nil {
		t.Fatal(err)
	}

	// Bob can't see, read, or operate on alice's workspace.
	if names, err := bob.ListWorkspaces(ctx); err != nil || len(names) != 0 {
		t.Fatalf("bob sees %v (err %v), want none", names, err)
	}
	if _, err := bob.GetWorkspace(ctx, "a1"); !errors.As(err, &apiErr) || apiErr.Code != 403 {
		t.Fatalf("bob GetWorkspace(a1): got %v, want 403", err)
	}
	if _, err := bob.SubmitJob(ctx, "a1", server.JobRequest{Kind: "plan"}); !errors.As(err, &apiErr) || apiErr.Code != 403 {
		t.Fatalf("bob SubmitJob(a1): got %v, want 403", err)
	}
	if _, err := bob.State(ctx, "a1"); !errors.As(err, &apiErr) || apiErr.Code != 403 {
		t.Fatalf("bob State(a1): got %v, want 403", err)
	}

	// Job IDs are global, but reads are scoped: bob can't read alice's job
	// even through a workspace he owns.
	planJob := mustJob(t, alice, "a1", server.JobRequest{Kind: "plan"})
	if _, err := bob.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "b1", Sources: tenantSource("b1"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.GetJob(ctx, "b1", planJob.ID, 0); !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("bob read of alice's job: got %v, want 404", err)
	}

	// The admin principal sees both tenants.
	names, err := admin.ListWorkspaces(ctx)
	if err != nil || len(names) != 2 {
		t.Fatalf("admin sees %v (err %v), want [a1 b1]", names, err)
	}
	if _, err := admin.GetWorkspace(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
}

// TestServerEventsWatermark: the per-workspace long-poll stream pages
// without duplication or loss when resumed from the returned watermark.
func TestServerEventsWatermark(t *testing.T) {
	_, client := newTestServer(t, nil, nil)
	ctx := context.Background()
	cl := client("")
	if _, err := cl.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "w", Sources: tenantSource("w"),
	}); err != nil {
		t.Fatal(err)
	}
	mustJob(t, cl, "w", server.JobRequest{Kind: "apply"})

	page, err := cl.Events(ctx, "w", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) == 0 || page.Next == 0 {
		t.Fatalf("empty event backlog after an apply: %+v", page)
	}
	for i := 1; i < len(page.Events); i++ {
		if page.Events[i].Seq <= page.Events[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", page.Events[i-1].Seq, page.Events[i].Seq)
		}
	}

	// Resuming from the middle returns exactly the tail, no overlap.
	mid := page.Events[len(page.Events)/2].Seq
	tail, err := cl.Events(ctx, "w", mid, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range page.Events {
		if e.Seq > mid {
			want++
		}
	}
	if len(tail.Events) != want {
		t.Fatalf("resume from %d returned %d events, want %d", mid, len(tail.Events), want)
	}
	for _, e := range tail.Events {
		if e.Seq <= mid {
			t.Fatalf("resume returned already-seen seq %d", e.Seq)
		}
	}

	// Resuming from the head finds nothing; a bounded long-poll returns the
	// unchanged watermark instead of hanging.
	start := time.Now()
	empty, err := cl.Events(ctx, "w", page.Next, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Events) != 0 || empty.Next != page.Next {
		t.Fatalf("poll past head returned %+v", empty)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("bounded long-poll overshot its wait")
	}
}

// TestServerSmoke is the two-tenant end-to-end: both tenants drive
// plan -> guarded apply (by plan artifact reference) -> drift over HTTP
// concurrently, converge to their own four resources with no cross-tenant
// drift, and the server shuts down cleanly (the t.Cleanup asserts that).
func TestServerSmoke(t *testing.T) {
	_, client := newTestServer(t,
		map[string]string{"tok-a": "alice", "tok-b": "bob"}, nil)
	ctx := context.Background()

	done := make(chan error, 2)
	for _, tc := range []struct{ token, ws string }{
		{"tok-a", "team-a"}, {"tok-b", "team-b"},
	} {
		go func(token, ws string) {
			done <- func() error {
				cl := client(token)
				if _, err := cl.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
					Name: ws, Sources: tenantSource(ws), GuardApplies: true,
				}); err != nil {
					return fmt.Errorf("%s create: %w", ws, err)
				}
				pst, err := cl.SubmitJob(ctx, ws, server.JobRequest{Kind: "plan"})
				if err != nil {
					return fmt.Errorf("%s plan: %w", ws, err)
				}
				if pst, err = cl.WaitJob(ctx, ws, pst.ID); err != nil || pst.Status != jobs.StatusSucceeded {
					return fmt.Errorf("%s plan job: %v %s %s", ws, err, pst.Status, pst.Err)
				}
				p, err := cl.PlanArtifact(ctx, ws, pst.ID)
				if err != nil {
					return fmt.Errorf("%s plan artifact: %w", ws, err)
				}
				if p.Creates != 4 {
					return fmt.Errorf("%s plan creates = %d, want 4", ws, p.Creates)
				}
				ast, err := cl.SubmitJob(ctx, ws, server.JobRequest{Kind: "apply", PlanJob: pst.ID})
				if err != nil {
					return fmt.Errorf("%s apply: %w", ws, err)
				}
				if ast, err = cl.WaitJob(ctx, ws, ast.ID); err != nil || ast.Status != jobs.StatusSucceeded {
					return fmt.Errorf("%s apply job: %v %s %s", ws, err, ast.Status, ast.Err)
				}
				res, err := server.ResultAs[server.ApplySummary](ast)
				if err != nil {
					return err
				}
				if res.Applied != 4 || res.Failed != 0 {
					return fmt.Errorf("%s applied %d/failed %d, want 4/0", ws, res.Applied, res.Failed)
				}
				dst, err := cl.SubmitJob(ctx, ws, server.JobRequest{Kind: "scan"})
				if err != nil {
					return fmt.Errorf("%s scan: %w", ws, err)
				}
				if dst, err = cl.WaitJob(ctx, ws, dst.ID); err != nil || dst.Status != jobs.StatusSucceeded {
					return fmt.Errorf("%s scan job: %v %s %s", ws, err, dst.Status, dst.Err)
				}
				rep, err := server.ResultAs[server.DriftSummary](dst)
				if err != nil {
					return err
				}
				// The shared simulated account contains the other tenant's
				// resources (reported as unmanaged, correctly) — but nothing
				// this tenant manages may read modified or deleted.
				for _, it := range rep.Items {
					if it.Kind == "modified" || it.Kind == "deleted" {
						return fmt.Errorf("%s sees %s drift on own resource %s", ws, it.Kind, it.Addr)
					}
				}
				st, err := cl.State(ctx, ws)
				if err != nil {
					return fmt.Errorf("%s state: %w", ws, err)
				}
				if got := len(st.Addrs()); got != 4 {
					return fmt.Errorf("%s state holds %d resources, want 4", ws, got)
				}
				return nil
			}()
		}(tc.token, tc.ws)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestServerArtifactTenantScoping: artifacts are keyed by workspace, so a
// tenant referencing another tenant's (sequential, guessable) job ID in
// plan_job or drift_job gets "not found" instead of that tenant's plan or
// drift report, while same-workspace references keep working.
func TestServerArtifactTenantScoping(t *testing.T) {
	_, client := newTestServer(t,
		map[string]string{"tok-a": "alice", "tok-b": "bob"}, nil)
	ctx := context.Background()
	alice, bob := client("tok-a"), client("tok-b")

	if _, err := alice.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "a1", Sources: tenantSource("a1"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "b1", Sources: tenantSource("b1"),
	}); err != nil {
		t.Fatal(err)
	}
	planJob := mustJob(t, alice, "a1", server.JobRequest{Kind: "plan"})
	scanJob := mustJob(t, alice, "a1", server.JobRequest{Kind: "scan"})

	// Bob cannot apply alice's plan artifact through his own workspace.
	st, err := bob.SubmitJob(ctx, "b1", server.JobRequest{Kind: "apply", PlanJob: planJob.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = bob.WaitJob(ctx, "b1", st.ID); err != nil {
		t.Fatal(err)
	}
	if st.Status != jobs.StatusFailed || !strings.Contains(st.Err, "not found") {
		t.Fatalf("cross-tenant plan_job apply: %s (%s), want failed not-found", st.Status, st.Err)
	}

	// Nor reconcile against alice's drift report.
	st, err = bob.SubmitJob(ctx, "b1", server.JobRequest{Kind: "reconcile", Action: "adopt", DriftJob: scanJob.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = bob.WaitJob(ctx, "b1", st.ID); err != nil {
		t.Fatal(err)
	}
	if st.Status != jobs.StatusFailed || !strings.Contains(st.Err, "not found") {
		t.Fatalf("cross-tenant drift_job reconcile: %s (%s), want failed not-found", st.Status, st.Err)
	}

	// Alice's own apply-by-reference still resolves her artifact.
	mustJob(t, alice, "a1", server.JobRequest{Kind: "apply", PlanJob: planJob.ID})
}

// TestServerDeleteWorkspaceClearsACL: deleting a workspace drops its ACL,
// so a new workspace reusing the name doesn't inherit the old principals.
func TestServerDeleteWorkspaceClearsACL(t *testing.T) {
	_, client := newTestServer(t,
		map[string]string{"tok-a": "alice", "tok-b": "bob"}, nil)
	ctx := context.Background()
	alice, bob := client("tok-a"), client("tok-b")

	if _, err := alice.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "shared", Sources: tenantSource("v1"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := alice.DeleteWorkspace(ctx, "shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "shared", Sources: tenantSource("v2"),
	}); err != nil {
		t.Fatal(err)
	}

	var apiErr *server.APIError
	if _, err := alice.GetWorkspace(ctx, "shared"); !errors.As(err, &apiErr) || apiErr.Code != 403 {
		t.Fatalf("alice kept access to recreated workspace: got %v, want 403", err)
	}
	if _, err := bob.GetWorkspace(ctx, "shared"); err != nil {
		t.Fatalf("new owner lost access: %v", err)
	}
}

// TestServerMetricsAuthAndScoping: /metrics requires a bearer token when
// auth is configured, and each principal's scrape contains only the
// workspaces it can access (admins see all of them).
func TestServerMetricsAuthAndScoping(t *testing.T) {
	_, client := newTestServer(t,
		map[string]string{"tok-a": "alice", "tok-b": "bob", "tok-r": "root"},
		[]string{"root"})
	ctx := context.Background()
	alice, bob, admin := client("tok-a"), client("tok-b"), client("tok-r")

	if _, err := alice.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "a1", Sources: tenantSource("a1"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "b1", Sources: tenantSource("b1"),
	}); err != nil {
		t.Fatal(err)
	}
	mustJob(t, alice, "a1", server.JobRequest{Kind: "plan"})
	mustJob(t, bob, "b1", server.JobRequest{Kind: "plan"})

	var apiErr *server.APIError
	if _, err := client("").Metrics(ctx); !errors.As(err, &apiErr) || apiErr.Code != 401 {
		t.Fatalf("unauthenticated /metrics: got %v, want 401", err)
	}

	scrape, err := alice.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape, `workspace="a1"`) {
		t.Error("alice's scrape is missing her own workspace series")
	}
	if strings.Contains(scrape, "b1") {
		t.Error("alice's scrape leaks bob's workspace")
	}

	scrape, err = admin.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape, `workspace="a1"`) || !strings.Contains(scrape, `workspace="b1"`) {
		t.Error("admin scrape is missing tenant series")
	}
}

// TestServerApplyByExpiredArtifact: referencing a job that never stored a
// plan fails the apply job rather than replanning silently.
func TestServerApplyByExpiredArtifact(t *testing.T) {
	_, client := newTestServer(t, nil, nil)
	ctx := context.Background()
	cl := client("")
	if _, err := cl.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "w", Sources: tenantSource("w"),
	}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.SubmitJob(ctx, "w", server.JobRequest{Kind: "apply", PlanJob: "j-999999"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.WaitJob(ctx, "w", st.ID); err != nil {
		t.Fatal(err)
	}
	if st.Status != jobs.StatusFailed {
		t.Fatalf("apply with missing artifact: %s, want failed", st.Status)
	}
}

// TestPlanJobsValidateFirst: a hosted workspace validates its configuration
// before it plans, as a local plan always has. A subnet outside its VPC's
// block fails the plan job, and an apply that plans for itself, with the
// finding named; nothing reaches the cloud.
func TestPlanJobsValidateFirst(t *testing.T) {
	sim, client := newSimServer(t, nil)
	ctx := context.Background()
	cl := client("")
	if _, err := cl.CreateWorkspace(ctx, server.CreateWorkspaceRequest{Name: "bad", Sources: map[string]string{"main.ccl": `
resource "aws_vpc" "net" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.net.id
  cidr_block = "10.1.0.0/24"
}
`}}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"plan", "apply"} {
		st, err := cl.SubmitJob(ctx, "bad", server.JobRequest{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = cl.WaitJob(ctx, "bad", st.ID); err != nil {
			t.Fatal(err)
		}
		if st.Status != jobs.StatusFailed || !strings.Contains(st.Err, "aws/subnet-cidr-within-vpc") {
			t.Errorf("%s job of an invalid configuration: %s (%s), want failed naming the finding", kind, st.Status, st.Err)
		}
	}
	if n := sim.TotalResources(); n != 0 {
		t.Errorf("the cloud holds %d resources after two refused jobs", n)
	}
}
