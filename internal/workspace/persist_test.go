package workspace_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloudless/internal/statedb"
	"cloudless/internal/workspace"
)

// TestManagerRecoverRebuildsWorkspaces: workspaces opened with a Root
// persist their manifest; a fresh manager over the same root (a restarted
// daemon) reopens them with config, vars, and durable state intact.
func TestManagerRecoverRebuildsWorkspaces(t *testing.T) {
	root := t.TempDir()
	sim := newSim()
	ctx := context.Background()

	mgr := workspace.NewManager(workspace.ManagerOptions{
		Root: root, Cloud: sim, DefaultBackend: statedb.BackendWAL,
	})
	const n = 3
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ws-%d", i)
		ws, err := mgr.Open(name, workspace.Config{Sources: tenantSource(name)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ws.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ws.Apply(ctx, p, workspace.ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Clean shutdown path: Close keeps the data dir (only Delete purges).
	if err := mgr.CloseAll(ctx); err != nil {
		t.Fatal(err)
	}

	// A manifest written before Config lost ProviderRetryBase,
	// HealthProbeInterval, GlobalLock and the six provider/guard tuning
	// fields still carries their keys; it must load all the same.
	manifestPath := filepath.Join(root, "ws-0", "workspace.json")
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	old["provider_retry_base"], old["health_probe_interval_ms"] = 50_000_000, 10
	old["global_lock"] = true
	for key, v := range map[string]any{
		"provider_cache_ttl": 30_000_000_000, "provider_max_retries": 1, "provider_max_in_flight": 8,
		"guard_max_failures": 3, "guard_max_failure_fraction": 0.5, "health_probe_timeout_ms": 30_000,
	} {
		old[key] = v
	}
	if raw, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new manager over the same root and cloud.
	mgr2 := workspace.NewManager(workspace.ManagerOptions{
		Root: root, Cloud: sim, DefaultBackend: statedb.BackendWAL,
	})
	rep, err := mgr2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("recover failures: %v", rep.Failed)
	}
	if len(rep.Reopened) != n {
		t.Fatalf("reopened %v, want %d workspaces", rep.Reopened, n)
	}
	for i := 0; i < n; i++ {
		ws, err := mgr2.Get(fmt.Sprintf("ws-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Durable state came back: the pre-restart apply's two resources.
		if snap := ws.DB().Snapshot(); len(snap.Addrs()) != 2 {
			t.Fatalf("ws-%d state after recover holds %d resources, want 2", i, len(snap.Addrs()))
		}
		// And the recovered config still plans cleanly to a no-op.
		p, err := ws.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if pending := p.Creates + p.Updates + p.Replaces + p.Deletes; pending != 0 {
			t.Fatalf("ws-%d plan after recover has %d pending ops, want 0", i, pending)
		}
	}
	if err := mgr2.CloseAll(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestManagerRecoverSkipsNonWorkspaceDirs: directories without a manifest
// (e.g. the job store root) are ignored, not errors.
func TestManagerRecoverSkipsNonWorkspaceDirs(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "jobs", "ws-a"), 0o755); err != nil {
		t.Fatal(err)
	}
	mgr := workspace.NewManager(workspace.ManagerOptions{Root: root, Cloud: newSim()})
	rep, err := mgr.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reopened) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("recover over non-workspace dirs = %+v, want empty", rep)
	}
}

// TestManagerDeletePurges: Delete removes the workspace's directory so a
// recreated name inherits nothing, while Close preserves it for recovery.
func TestManagerDeletePurges(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	mgr := workspace.NewManager(workspace.ManagerOptions{Root: root, Cloud: newSim()})
	if _, err := mgr.Open("doomed", workspace.Config{Sources: tenantSource("doomed")}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "doomed", "workspace.json")); err != nil {
		t.Fatalf("manifest not persisted: %v", err)
	}
	if err := mgr.Delete(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "doomed")); !os.IsNotExist(err) {
		t.Fatalf("workspace dir survived Delete: %v", err)
	}
	// Recover finds nothing to rebuild.
	rep, err := mgr.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reopened) != 0 {
		t.Fatalf("deleted workspace recovered: %v", rep.Reopened)
	}
}
