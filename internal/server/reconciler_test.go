package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/jobs"
	"cloudless/internal/reconcile"
	"cloudless/internal/server"
	"cloudless/internal/workspace"
)

// newSimServer is newTestServer with the simulated cloud handed back, so
// tests can mutate resources out-of-band (foreign drift).
func newSimServer(t *testing.T, tokens map[string]string) (*cloud.Sim, func(token string) *server.Client) {
	t.Helper()
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	mgr := workspace.NewManager(workspace.ManagerOptions{Cloud: sim})
	queue := jobs.New(jobs.Options{Workers: 4})
	srv := server.New(server.Options{Manager: mgr, Queue: queue, Tokens: tokens})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return sim, func(token string) *server.Client {
		return server.NewClient(ts.URL, token, nil)
	}
}

// foreignRename mutates the workspace's VPC under a foreign principal and
// returns the resource ID.
func foreignRename(t *testing.T, sim *cloud.Sim, tenant, newName string) string {
	t.Helper()
	ctx := context.Background()
	vpcs, err := sim.List(ctx, "aws_vpc", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vpcs {
		if strings.Contains(v.Attrs["name"].AsString(), tenant) {
			if _, err := sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: v.ID,
				Attrs:     map[string]eval.Value{"name": eval.String(newName)},
				Principal: "rogue"}); err != nil {
				t.Fatal(err)
			}
			return v.ID
		}
	}
	t.Fatalf("no aws_vpc for tenant %s", tenant)
	return ""
}

// TestReconcileJobStaleDriftArtifact (satellite: stale-artifact regression):
// a one-shot reconcile job whose drift artifact predates the current state
// serial must fail with the typed stale error instead of applying a repair
// computed against a baseline that no longer exists.
func TestReconcileJobStaleDriftArtifact(t *testing.T) {
	sim, client := newSimServer(t, map[string]string{"tok-a": "alice"})
	ctx := context.Background()
	alice := client("tok-a")

	if _, err := alice.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "a1", Sources: tenantSource("a1"),
	}); err != nil {
		t.Fatal(err)
	}
	mustJob(t, alice, "a1", server.JobRequest{Kind: "apply"})

	// Foreign drift, then a scan that pins the report to the current serial.
	foreignRename(t, sim, "a1", "rogue-1")
	scan := mustJob(t, alice, "a1", server.JobRequest{Kind: "scan"})

	// Reverting through that artifact works while the baseline holds...
	mustJob(t, alice, "a1", server.JobRequest{Kind: "reconcile", Action: "revert", DriftJob: scan.ID})

	// ...but the revert advanced the state serial, so replaying the same
	// artifact must be refused as stale, not applied twice.
	foreignRename(t, sim, "a1", "rogue-2")
	st, err := alice.SubmitJob(ctx, "a1", server.JobRequest{Kind: "reconcile", Action: "revert", DriftJob: scan.ID})
	if err != nil {
		t.Fatal(err)
	}
	st, err = alice.WaitJob(ctx, "a1", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != jobs.StatusFailed {
		t.Fatalf("stale reconcile job finished %s, want failed", st.Status)
	}
	if !strings.Contains(st.Err, "stale report") || !strings.Contains(st.Err, "re-detect") {
		t.Fatalf("stale reconcile error %q lacks the typed stale-report text", st.Err)
	}
}

// TestReconcilerEndpointLifecycle: the POST /reconciler surface — enable
// repairs real foreign drift end to end, double-enable conflicts, status
// reports per-address state, disable is idempotent, and foreign tenants are
// locked out.
func TestReconcilerEndpointLifecycle(t *testing.T) {
	sim, client := newSimServer(t, map[string]string{"tok-a": "alice", "tok-b": "bob"})
	ctx := context.Background()
	alice, bob := client("tok-a"), client("tok-b")

	if _, err := alice.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "a1", Sources: tenantSource("a1"),
	}); err != nil {
		t.Fatal(err)
	}
	mustJob(t, alice, "a1", server.JobRequest{Kind: "apply"})

	// Status before enable: present, disabled — no 404s to special-case.
	st, err := alice.ReconcilerStatus(ctx, "a1")
	if err != nil || st.Enabled {
		t.Fatalf("pre-enable status = %+v, %v", st, err)
	}

	// Bob cannot see or flip alice's reconciler.
	var apiErr *server.APIError
	if _, err := bob.ReconcilerStatus(ctx, "a1"); !errors.As(err, &apiErr) || apiErr.Code != 403 {
		t.Fatalf("bob status: got %v, want 403", err)
	}
	if _, err := bob.SetReconciler(ctx, "a1", server.ReconcilerRequest{Enabled: true}); !errors.As(err, &apiErr) || apiErr.Code != 403 {
		t.Fatalf("bob enable: got %v, want 403", err)
	}

	st, err = alice.SetReconciler(ctx, "a1", server.ReconcilerRequest{
		Enabled: true, Mode: "repair",
		FullScanEveryMs: -1,
	})
	if err != nil || !st.Enabled || st.Mode != "repair" {
		t.Fatalf("enable = %+v, %v", st, err)
	}
	if _, err := alice.SetReconciler(ctx, "a1", server.ReconcilerRequest{Enabled: true}); !errors.As(err, &apiErr) || apiErr.Code != 409 {
		t.Fatalf("double enable: got %v, want 409", err)
	}

	// Real foreign drift is detected via the activity tail and repaired.
	id := foreignRename(t, sim, "a1", "rogue-live")
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err = alice.ReconcilerStatus(ctx, "a1")
		if err != nil {
			t.Fatal(err)
		}
		if st.Repaired >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconciler never repaired: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err := sim.Get(ctx, "aws_vpc", id)
	if err != nil {
		t.Fatal(err)
	}
	if name := res.Attrs["name"].AsString(); name == "rogue-live" {
		t.Fatalf("drift not actually reverted in the cloud: name=%s", name)
	}
	if st.Watermark == 0 || st.Detected < 1 {
		t.Fatalf("status after repair: %+v", st)
	}

	// Disable, twice: the second is a no-op, not an error.
	for i := 0; i < 2; i++ {
		if st, err = alice.SetReconciler(ctx, "a1", server.ReconcilerRequest{Enabled: false}); err != nil || st.Enabled {
			t.Fatalf("disable #%d = %+v, %v", i+1, st, err)
		}
	}
	if st, err = alice.ReconcilerStatus(ctx, "a1"); err != nil || st.Enabled {
		t.Fatalf("post-disable status = %+v, %v", st, err)
	}
}

// renameNIC renames one network interface under a foreign principal.
func renameNIC(t *testing.T, sim *cloud.Sim, name, newName string) string {
	t.Helper()
	ctx := context.Background()
	nics, err := sim.List(ctx, "aws_network_interface", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nics {
		if n.Attrs["name"].AsString() == name {
			if _, err := sim.Update(ctx, cloud.UpdateRequest{Type: "aws_network_interface", ID: n.ID,
				Attrs:     map[string]eval.Value{"name": eval.String(newName)},
				Principal: "rogue"}); err != nil {
				t.Fatal(err)
			}
			return n.ID
		}
	}
	t.Fatalf("no network interface named %s", name)
	return ""
}

// TestRecoverReconcilerFromOlderCheckpoint: a checkpoint in the older
// format, which nested the full-scan period (-1: off) with nine knobs that
// are constants now under "tuning", still resumes its controller. The
// controller picks up at the checkpoint's watermark: drift at or below it
// was the previous life's and is left alone, drift past it is repaired, and
// the full-scan period carries into the checkpoints it writes.
func TestRecoverReconcilerFromOlderCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/reconciler_checkpoint_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Watermark int64                      `json:"watermark"`
		Tuning    map[string]json.RawMessage `json:"tuning"`
	}
	if err := json.Unmarshal(raw, &old); err != nil || len(old.Tuning) != 10 {
		t.Fatalf("testdata checkpoint: %d tuning fields, err %v; want all 10", len(old.Tuning), err)
	}

	ctx := context.Background()
	dir := t.TempDir()
	sim := newDurableSim()
	d := newDurableStack(t, dir, sim)
	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: "cp", Sources: tenantSource("cp"),
	}); err != nil {
		t.Fatal(err)
	}
	mustJob(t, d.client, "cp", server.JobRequest{Kind: "apply"})
	// Foreign drift up to the checkpoint's watermark: the previous life's.
	if sim.LastSeq() >= old.Watermark {
		t.Fatalf("the apply alone reaches seq %d; the testdata watermark %d must lie past it", sim.LastSeq(), old.Watermark)
	}
	var vpc string
	for i := 0; sim.LastSeq() < old.Watermark; i++ {
		vpc = foreignRename(t, sim, "cp", fmt.Sprintf("rogue-cp-%d", i))
	}
	d.stop(t)

	// While down, drift lands past the watermark (on a leaf, so its repair
	// cannot reach the VPC); then the older daemon's checkpoint is what the
	// journal holds.
	nic := renameNIC(t, sim, "web-nic-cp-1", "rogue-down")
	store, err := jobs.OpenStore(dir, jobs.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveReconciler("cp", raw); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	d = newDurableStack(t, dir, sim)
	t.Cleanup(func() { d.stop(t) })
	d.recover(t)
	rep, err := d.srv.RecoverReconcilers(ctx)
	if err != nil || rep.Resumed != 1 {
		t.Fatalf("RecoverReconcilers = %+v, %v; want 1 resumed", rep, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st server.ReconcilerStatus
	for {
		if st, err = d.client.ReconcilerStatus(ctx, "cp"); err != nil {
			t.Fatal(err)
		}
		if st.Repaired >= 1 && st.Watermark == st.IngestSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed reconciler never repaired the downtime drift: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Mode != "repair" || st.Repaired != 1 || st.FullScans != 0 || st.Watermark <= old.Watermark {
		t.Fatalf("resumed status: %+v", st)
	}
	if res, err := sim.Get(ctx, "aws_network_interface", nic); err != nil || res.Attrs["name"].AsString() != "web-nic-cp-1" {
		t.Fatalf("downtime drift not repaired: %v %v", res.Attrs["name"], err)
	}
	if res, err := sim.Get(ctx, "aws_vpc", vpc); err != nil || res.Attrs["name"].AsString() == "net-cp" {
		t.Fatalf("drift at or below the checkpoint's watermark was replayed and repaired: %v %v", res.Attrs["name"], err)
	}

	// The checkpoints the resumed controller writes keep the period.
	saved, err := d.queue.Store().LoadReconciler("cp")
	if err != nil {
		t.Fatal(err)
	}
	var cp reconcile.Checkpoint
	if err := json.Unmarshal(saved, &cp); err != nil || cp.FullScanEvery != -1 || cp.Watermark != st.Watermark {
		t.Fatalf("saved checkpoint %s (%+v, %v): want full_scan_every -1 at watermark %d", saved, cp, err, st.Watermark)
	}
}
