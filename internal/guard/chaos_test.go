package guard

// Chaos harness for guarded applies, extending the apply-engine harness
// (internal/apply/chaos_test.go): every trial runs a health-gated apply with
// randomized unhealthiness injections — and sometimes a process crash mid-
// canary or mid-auto-rollback — then asserts the S24 invariant: the run
// either fully converged or fully reverted, and after journal recovery the
// cloud and state agree exactly (zero orphans, zero duplicates).

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

func chaosTrials(t *testing.T, def int) int {
	if v := os.Getenv("CLOUDLESS_CHAOS_TRIALS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CLOUDLESS_CHAOS_TRIALS=%q: not a positive integer", v)
		}
		return n
	}
	if testing.Short() {
		return def / 2
	}
	return def
}

func nonNoopCount(t *testing.T, src string, st *state.State) int {
	t.Helper()
	p := planFor(t, src, st)
	n := 0
	for _, ch := range p.Changes {
		if ch.Action != plan.ActionNoop {
			n++
		}
	}
	return n
}

// assertNoOrphans checks cloud and state agree exactly.
func assertNoOrphans(t *testing.T, sim *cloud.Sim, st *state.State) {
	t.Helper()
	ctx := context.Background()
	for _, addr := range st.Addrs() {
		rs := st.Get(addr)
		if _, err := sim.Get(ctx, rs.Type, rs.ID); err != nil {
			t.Errorf("state entry %s (%s) missing from cloud: %s", addr, rs.ID, err)
		}
	}
	if got := sim.TotalResources(); got != st.Len() {
		t.Errorf("cloud holds %d resources, state holds %d (orphans or losses)", got, st.Len())
	}
}

func assertConverged(t *testing.T, sim *cloud.Sim, src string, st *state.State) {
	t.Helper()
	if n := nonNoopCount(t, src, st); n != 0 {
		t.Errorf("re-plan has %d pending changes, want 0", n)
	}
	assertNoOrphans(t, sim, st)
}

// TestChaosGuardedConvergeOrRevert sweeps randomized unhealthiness over
// guarded applies: every trial must end fully converged (no injection bit)
// or fully reverted (the webConfig graph is one connected slice, so a revert
// empties the cloud) — never half-applied.
func TestChaosGuardedConvergeOrRevert(t *testing.T) {
	trials := chaosTrials(t, 16)
	types := []string{"aws_vpc", "aws_subnet", "aws_network_interface", "aws_virtual_machine"}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(strconv.Itoa(trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			sim := newSim()
			journalPath := filepath.Join(t.TempDir(), "apply.journal")

			poisoned := rng.Intn(4) > 0 // 3 in 4 trials inject a fault
			if poisoned {
				sim.InjectUnhealthy(cloud.UnhealthySpec{
					Count: 1 + rng.Intn(2),
					Type:  types[rng.Intn(len(types))],
				})
			}
			canary := 0.0
			if rng.Intn(2) == 0 {
				canary = 0.2 + 0.3*rng.Float64()
			}

			j, err := apply.NewJournal(journalPath, apply.Meta{Kind: "apply", Principal: "cloudless"})
			if err != nil {
				t.Fatal(err)
			}
			p := planFor(t, webConfig, state.New())
			res := Run(context.Background(), sim, p, apply.Options{
				ContinueOnError: true, Journal: j,
			}, Options{Canary: canary})
			j.Close()

			switch {
			case res.Err() == nil:
				assertConverged(t, sim, webConfig, res.State)
			case res.Reverted:
				if got := sim.TotalResources(); got != 0 {
					t.Errorf("reverted run left %d resources in the cloud", got)
				}
				assertNoOrphans(t, sim, res.State)
			default:
				t.Errorf("run neither converged nor reverted: err=%v reverted=%v rolledback=%v",
					res.Err(), res.Reverted, res.RolledBack)
			}
			// Converged or cleanly reverted: the journal would be discarded by
			// the facade; nothing in doubt may remain.
			if res.Err() == nil || res.Reverted {
				js, err := apply.ReadJournal(journalPath)
				if err != nil {
					t.Fatal(err)
				}
				if js != nil {
					if doubt := js.InDoubt(); len(doubt) != 0 {
						t.Errorf("in-doubt ops after a clean outcome: %v", doubt)
					}
				}
			}
		})
	}
}

// TestChaosGuardedCrashMidCanary kills the process while the canary wave is
// mid-flight, then restarts: journal recovery plus a fresh guarded apply must
// converge with zero orphans.
func TestChaosGuardedCrashMidCanary(t *testing.T) {
	trials := chaosTrials(t, 8)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(strconv.Itoa(trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(5000 + trial)))
			sim := newSim()
			journalPath := filepath.Join(t.TempDir(), "apply.journal")

			j, err := apply.NewJournal(journalPath, apply.Meta{Kind: "apply", Principal: "cloudless"})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			point := cloud.CrashBeforeOp
			if rng.Intn(2) == 0 {
				point = cloud.CrashAfterOp
			}
			fired := false
			// The 0.4 canary of webConfig is 2 ops: a countdown of 1-2 dies
			// inside the canary wave.
			sim.InjectCrash(point, 1+rng.Intn(2), func() {
				fired = true
				j.Kill()
				cancel()
			})
			p := planFor(t, webConfig, state.New())
			res := Run(ctx, sim, p, apply.Options{ContinueOnError: true, Journal: j},
				Options{Canary: 0.4})
			cancel()
			j.Close()
			if !fired {
				t.Fatal("crash never fired inside the canary")
			}
			if res.Err() == nil {
				t.Fatal("guarded run reported success despite the crash")
			}
			sim.ClearInjections()

			// --- restart ---
			js, err := apply.ReadJournal(journalPath)
			if err != nil || js == nil {
				t.Fatalf("read journal: %v, %v", js, err)
			}
			st, rep := apply.Recover(context.Background(), sim, js, state.New(), apply.Options{})
			if err := rep.Err(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if err := os.Remove(journalPath); err != nil {
				t.Fatal(err)
			}
			p = planFor(t, webConfig, st)
			final := Run(context.Background(), sim, p, apply.Options{ContinueOnError: true},
				Options{Canary: 0.4})
			if err := final.Err(); err != nil {
				t.Fatalf("continuation apply: %s", err)
			}
			assertConverged(t, sim, webConfig, final.State)
		})
	}
}

// TestChaosGuardedCrashMidAutoRollback poisons the nic so the guarded apply
// builds the slice and then auto-reverts — and kills the process while the
// rollback's deletes are mid-flight. Restart must reconcile the journal
// (begin-supersedes-done across the create-then-delete per address) and a
// fresh apply converges with zero orphans.
func TestChaosGuardedCrashMidAutoRollback(t *testing.T) {
	trials := chaosTrials(t, 8)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(strconv.Itoa(trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(6000 + trial)))
			sim := newSim()
			journalPath := filepath.Join(t.TempDir(), "apply.journal")
			sim.InjectUnhealthy(cloud.UnhealthySpec{Type: "aws_network_interface"})

			j, err := apply.NewJournal(journalPath, apply.Meta{Kind: "apply", Principal: "cloudless"})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			point := cloud.CrashBeforeOp
			if rng.Intn(2) == 0 {
				point = cloud.CrashAfterOp
			}
			fired := false
			// The apply phase issues 4 creates (vm is cut off by the nic's
			// gate failure); the rollback then deletes those 4. A countdown of
			// 5-8 lands inside the rollback.
			sim.InjectCrash(point, 5+rng.Intn(4), func() {
				fired = true
				j.Kill()
				cancel()
			})
			p := planFor(t, webConfig, state.New())
			res := Run(ctx, sim, p, apply.Options{ContinueOnError: true, Journal: j}, Options{})
			cancel()
			j.Close()
			if !fired {
				t.Fatal("crash never fired inside the auto-rollback")
			}
			if res.Reverted {
				t.Fatal("rollback claims completion despite dying mid-flight")
			}
			sim.ClearInjections()
			if !sim.Injections().Empty() {
				t.Fatal("injections survived ClearInjections")
			}

			// --- restart ---
			js, err := apply.ReadJournal(journalPath)
			if err != nil || js == nil {
				t.Fatalf("read journal: %v, %v", js, err)
			}
			st, rep := apply.Recover(context.Background(), sim, js, state.New(), apply.Options{})
			if err := rep.Err(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if err := os.Remove(journalPath); err != nil {
				t.Fatal(err)
			}
			assertNoOrphans(t, sim, st)
			p = planFor(t, webConfig, st)
			final := Run(context.Background(), sim, p, apply.Options{ContinueOnError: true}, Options{})
			if err := final.Err(); err != nil {
				t.Fatalf("continuation apply: %s", err)
			}
			assertConverged(t, sim, webConfig, final.State)
		})
	}
}
