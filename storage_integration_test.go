package cloudless_test

import (
	"context"
	"errors"
	"testing"

	cloudless "cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/statedb"
)

// openStackOn opens the shared test stack on a specific storage backend.
func openStackOn(t *testing.T, sim cloud.Interface, backend, stateDir string) *cloudless.Stack {
	t.Helper()
	s, err := cloudless.Open(cloudless.Options{
		Sources:      map[string]string{"main.ccl": stackConfig},
		Cloud:        sim,
		StateBackend: backend,
		StateDir:     stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMVCCPlanDuringApply is the acceptance test for the engine's version
// chains, with the commit log off and on: a plan started while an apply is in
// flight returns results consistent with the pre-apply serial — and keeps
// doing so after the apply commits, because the engine retains the pinned
// version. The same serial then serves a rollback plan, and the durable
// stack reopens at the last acknowledged serial.
func TestMVCCPlanDuringApply(t *testing.T) {
	for _, backend := range statedb.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) { testPlanDuringApply(t, backend) })
	}
}

func testPlanDuringApply(t *testing.T, backend string) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	// Real latency so the scale-out apply stays in flight long enough for
	// concurrent plans to overlap it (15s modeled VM create -> ~7.5ms).
	opts.TimeScale = 0.0005
	sim := cloud.NewSim(opts)
	ctx := context.Background()
	dir := ""
	if backend == cloudless.BackendWAL {
		dir = t.TempDir()
	}
	s := openStackOn(t, sim, backend, dir)

	// Deploy the initial 2-VM stack.
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	preSerial := s.DB().Serial()
	preLen := s.DB().Snapshot().Len()
	if preLen != 6 {
		t.Fatalf("deployed resources = %d, want 6", preLen)
	}

	// Scale out 2 -> 4 VMs and start the apply in the background.
	if err := s.SetVar("vm_count", 4); err != nil {
		t.Fatal(err)
	}
	scaleOut, err := s.PlanOffline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if scaleOut.BaseSerial != preSerial {
		t.Fatalf("scale-out plan base = %d, want %d", scaleOut.BaseSerial, preSerial)
	}
	if scaleOut.Creates != 4 { // 2 NICs + 2 VMs
		t.Fatalf("scale-out plan: %s", scaleOut.Summary())
	}
	applyDone := make(chan error, 1)
	go func() {
		_, _, err := s.Apply(ctx, scaleOut, cloudless.ApplyOptions{})
		applyDone <- err
	}()

	// While the apply is in flight, keep planning against the pre-apply
	// serial. Every such plan must describe the pre-apply world: 4 creates
	// pending, nothing from the concurrent apply visible.
	concurrent := 0
	var lastConcurrent *cloudless.Plan
loop:
	for {
		select {
		case err := <-applyDone:
			if err != nil {
				t.Fatal(err)
			}
			break loop
		default:
		}
		inFlight := s.DB().Serial() == preSerial // apply has not committed yet
		cp, err := s.PlanOfflineAt(ctx, preSerial)
		if err != nil {
			t.Fatal(err)
		}
		if cp.BaseSerial != preSerial {
			t.Fatalf("concurrent plan base = %d, want %d", cp.BaseSerial, preSerial)
		}
		if cp.Creates != 4 || cp.Updates != 0 || cp.Deletes != 0 {
			t.Fatalf("concurrent plan inconsistent with pre-apply serial: %s", cp.Summary())
		}
		if inFlight {
			concurrent++
			lastConcurrent = cp
		}
	}
	if concurrent == 0 {
		t.Fatal("no plan overlapped the in-flight apply; raise the sim TimeScale")
	}
	t.Logf("%d plans completed while the apply was in flight", concurrent)

	// The apply committed: latest state moved on, but the pinned serial
	// still answers with the pre-apply world.
	if s.DB().Serial() <= preSerial {
		t.Fatalf("apply did not advance the serial (still %d)", s.DB().Serial())
	}
	if got := s.DB().Snapshot().Len(); got != 10 {
		t.Errorf("post-apply resources = %d, want 10", got)
	}
	old, err := s.DB().SnapshotAt(preSerial)
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != preLen || old.Serial != preSerial {
		t.Errorf("pinned snapshot len=%d serial=%d, want %d and %d", old.Len(), old.Serial, preLen, preSerial)
	}
	post, err := s.PlanOfflineAt(ctx, preSerial)
	if err != nil {
		t.Fatal(err)
	}
	if post.Creates != 4 {
		t.Errorf("post-apply pinned plan: %s, want 4 creates", post.Summary())
	}
	fresh, err := s.PlanOffline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.PendingCount() != 0 {
		t.Errorf("latest-serial plan not converged: %s", fresh.Summary())
	}

	// Applying a plan pinned before the apply must abort with the typed
	// stale-base conflict instead of clobbering the committed scale-out.
	_, _, err = s.Apply(ctx, lastConcurrent, cloudless.ApplyOptions{})
	var stale *cloudless.StaleBaseError
	if !errors.As(err, &stale) {
		t.Fatalf("stale apply error = %v, want *StaleBaseError", err)
	}
	if stale.Base != preSerial {
		t.Errorf("conflict base = %d, want %d", stale.Base, preSerial)
	}
	// The committed world is untouched by the aborted apply's state commit.
	if got := s.DB().Snapshot().Len(); got != 10 {
		t.Errorf("resources after aborted stale apply = %d, want 10", got)
	}

	// The time machine plans a rollback from the same pinned serial: the
	// scale-out's 2 NICs + 2 VMs go, and the target is the pre-apply world.
	rp, err := s.PlanRollback(preSerial)
	if err != nil {
		t.Fatal(err)
	}
	target, err := s.DB().SnapshotAt(preSerial)
	if err != nil {
		t.Fatal(err)
	}
	if rp.PendingCount() != 4 || target.Len() != preLen || target.Serial != preSerial {
		t.Errorf("rollback to %d: %s, target len=%d serial=%d", preSerial, rp.Summary(), target.Len(), target.Serial)
	}
	if _, err := s.PlanRollback(s.DB().Serial() + 1); !errors.Is(err, statedb.ErrNoSuchSerial) {
		t.Errorf("rollback to an uncommitted serial: error = %v, want ErrNoSuchSerial", err)
	}

	if backend == cloudless.BackendWAL {
		last := s.DB().Serial()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re := openStackOn(t, sim, backend, dir)
		if re.DB().Serial() != last || re.DB().Snapshot().Len() != 10 {
			t.Errorf("reopened at serial %d with %d resources, want %d and 10",
				re.DB().Serial(), re.DB().Snapshot().Len(), last)
		}
	}
}

// TestStackLifecycleOnEveryBackend runs plan/apply/destroy on each storage
// backend to prove the facade is backend-agnostic.
func TestStackLifecycleOnEveryBackend(t *testing.T) {
	for _, backend := range statedb.Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			ctx := context.Background()
			dir := ""
			if backend == cloudless.BackendWAL {
				dir = t.TempDir()
			}
			s := openStackOn(t, newSim(), backend, dir)
			if got := s.DB().Backend(); got != backend {
				t.Fatalf("backend = %q, want %q", got, backend)
			}
			p, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
			if got := len(s.Outputs()["vm_ids"].([]any)); got != 2 {
				t.Errorf("vm_ids = %d, want 2", got)
			}
			p2, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if p2.PendingCount() != 0 {
				t.Errorf("re-plan not converged: %s", p2.Summary())
			}
			serial := s.DB().Serial()

			if backend == cloudless.BackendWAL {
				// Durability: close, reopen on the same directory with no
				// initial state, and the golden state must be back.
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				re := openStackOn(t, s.Cloud(), backend, dir)
				if re.DB().Serial() != serial {
					t.Fatalf("reopened serial = %d, want %d", re.DB().Serial(), serial)
				}
				if re.DB().Snapshot().Len() != 6 {
					t.Fatalf("reopened resources = %d, want 6", re.DB().Snapshot().Len())
				}
				rp, err := re.PlanOffline(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rp.PendingCount() != 0 {
					t.Errorf("plan after crash-free reopen: %s", rp.Summary())
				}
				s = re
			}

			if _, err := s.Destroy(ctx); err != nil {
				t.Fatal(err)
			}
			if s.DB().Snapshot().Len() != 0 {
				t.Errorf("state not emptied by destroy")
			}
		})
	}
}

// TestTimeMachineWindow: the time machine reaches back a bounded number of
// commits. A serial that has left the engine's window fails PlanOfflineAt and
// PlanRollback with statedb.ErrNoSuchSerial, wrapped; one still inside it
// plans as before.
func TestTimeMachineWindow(t *testing.T) {
	ctx := context.Background()
	s := openStackOn(t, newSim(), cloudless.BackendMemory, "")
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	deployed := s.DB().Serial()
	churn := func(commits int) {
		t.Helper()
		for i := 0; i < commits; i++ {
			if _, err := s.DB().Begin("churn").Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(10)
	if _, err := s.PlanOfflineAt(ctx, deployed); err != nil {
		t.Fatalf("plan at a serial 10 commits back: %v", err)
	}
	churn(200)
	if _, err := s.PlanOfflineAt(ctx, deployed); !errors.Is(err, statedb.ErrNoSuchSerial) {
		t.Errorf("PlanOfflineAt(%d) 210 commits on = %v, want ErrNoSuchSerial", deployed, err)
	}
	if _, err := s.PlanRollback(deployed); !errors.Is(err, statedb.ErrNoSuchSerial) {
		t.Errorf("PlanRollback(%d) 210 commits on = %v, want ErrNoSuchSerial", deployed, err)
	}
	recent := s.DB().Serial() - 10
	if cp, err := s.PlanOfflineAt(ctx, recent); err != nil || cp.PendingCount() != 0 {
		t.Errorf("plan at a serial 10 commits back = %v, %v; want a converged plan", cp, err)
	}
	if rp, err := s.PlanRollback(recent); err != nil || rp.PendingCount() != 0 {
		t.Errorf("rollback to a serial 10 commits back = %v, %v; want an empty plan", rp, err)
	}
}
