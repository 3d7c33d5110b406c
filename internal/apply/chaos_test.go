package apply

// Chaos harness: randomized kill/restart/recover cycles over the apply
// engine. Each trial builds a fresh simulated cloud, starts an apply under a
// journal, kills the "process" at a randomized crash point (before an op
// reaches the cloud, after it landed but before the response was recorded,
// or mid-journal-write with a torn frame), then restarts: replay the
// journal, recover (sometimes crashing *during* recovery too, then
// recovering again), re-plan, and finish. Every trial must converge to
// exactly the desired resources — zero orphans, zero duplicate creates,
// zero lost ops.
//
// Trial count defaults low for the inner dev loop; CI and the CR experiment
// raise it via CLOUDLESS_CHAOS_TRIALS.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

// webConfigV2 mutates webConfig with an in-place update (nic name), a
// forced replacement (vm image), and a deletion (subnet count 2 -> 1), so
// mutation-phase crashes cover update, replace, and delete ops.
var webConfigV2 = func() string {
	s := strings.Replace(webConfig, `name      = "nic"`, `name      = "nic-v2"`, 1)
	s = strings.Replace(s, `nic_ids = [aws_network_interface.nic.id]`,
		"nic_ids = [aws_network_interface.nic.id]\n  image   = \"ami-linux-2027\"", 1)
	return strings.Replace(s, `count      = 2`, `count      = 1`, 1)
}()

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

// crashMode is how the simulated process dies.
type crashMode int

const (
	crashBefore crashMode = iota // before the op reaches the cloud
	crashAfter                   // op landed, response lost (in doubt)
	crashTorn                    // mid-journal-write: torn frame then death
)

// runCrashedApply starts an apply under a journal and kills it at the given
// point. Returns whether the crash actually fired (a countdown beyond the
// op count means the apply just succeeds).
func runCrashedApply(t *testing.T, sim *cloud.Sim, p *plan.Plan, journalPath string,
	mode crashMode, point cloud.CrashPoint, afterN int) (crashFired bool) {
	t.Helper()
	j, err := NewJournal(journalPath, Meta{Kind: "apply", Principal: "cloudless"})
	if err != nil {
		t.Fatalf("new journal: %s", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	sim.InjectCrash(point, afterN, func() {
		fired = true
		if mode == crashTorn {
			j.KillTorn()
		} else {
			j.Kill()
		}
		cancel()
	})
	res := Apply(ctx, sim, p, Options{Journal: j, ContinueOnError: true})
	sim.ClearCrash()
	j.Close()
	if fired && res.Err() == nil {
		t.Fatal("apply reported success despite an injected crash")
	}
	if fired {
		return true
	}
	// Crash never fired: the apply completed, but the harness models the
	// process dying before the result reached the golden state — the journal
	// stays, and recovery must reconstruct the whole run from done records.
	if err := res.Err(); err != nil {
		t.Fatalf("crash-free apply failed: %s", err)
	}
	return false
}

// recoverAndFinish restarts from the journal: recover (optionally crashing
// once mid-recovery), commit nothing (the harness owns state), re-plan, and
// run the remaining ops. Returns the converged state.
func recoverAndFinish(t *testing.T, sim *cloud.Sim, src string, base *state.State,
	journalPath string, rng *rand.Rand, crashRecovery bool) *state.State {
	t.Helper()
	reconciled := base
	js, err := ReadJournal(journalPath)
	if err != nil {
		t.Fatalf("read journal: %s", err)
	}
	if js != nil {
		if crashRecovery {
			// Kill recovery itself partway through its cloud work, then run
			// it again — recovery must be idempotent under its own crashes.
			rctx, rcancel := context.WithCancel(context.Background())
			point := cloud.CrashBeforeOp
			if rng.Intn(2) == 0 {
				point = cloud.CrashAfterOp
			}
			sim.InjectCrash(point, 1+rng.Intn(2), rcancel)
			_, _ = Recover(rctx, sim, js, base, Options{})
			sim.ClearCrash()
			rcancel()
		}
		st, rep := Recover(context.Background(), sim, js, base, Options{})
		if err := rep.Err(); err != nil {
			t.Fatalf("recover report: %s", err)
		}
		reconciled = st
		if err := os.Remove(journalPath); err != nil {
			t.Fatal(err)
		}
	}
	p := planFor(t, src, reconciled)
	res := Apply(context.Background(), sim, p, Options{})
	if err := res.Err(); err != nil {
		t.Fatalf("continuation apply: %s", err)
	}
	return res.State
}

// TestChaosKillRestartRecover is the convergence sweep: randomized crash
// points across create, update, replace, and delete ops, torn journal
// frames, and crashes during recovery itself.
func TestChaosKillRestartRecover(t *testing.T) {
	trials := chaosTrials(t, 24)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(strconv.Itoa(trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			sim := newSim()
			dir := t.TempDir()
			journalPath := filepath.Join(dir, "apply.journal")

			// Phase selection: half the trials crash the initial create
			// apply, half first converge and then crash a mutation apply.
			mutationPhase := trial%2 == 1
			base := state.New()
			src := webConfig
			if mutationPhase {
				p := planFor(t, webConfig, base)
				res := Apply(context.Background(), sim, p, Options{})
				if err := res.Err(); err != nil {
					t.Fatalf("baseline apply: %s", err)
				}
				base = res.State
				src = webConfigV2
			}

			mode := crashMode(rng.Intn(3))
			point := cloud.CrashBeforeOp
			if mode == crashAfter {
				point = cloud.CrashAfterOp
			} else if mode == crashTorn && rng.Intn(2) == 0 {
				point = cloud.CrashAfterOp
			}
			// webConfig has 5 mutating calls; V2 has 4 (update, delete,
			// replace = delete+create). Aim inside that window.
			afterN := 1 + rng.Intn(5)

			p := planFor(t, src, base)
			fired := runCrashedApply(t, sim, p, journalPath, mode, point, afterN)
			crashRecovery := fired && rng.Intn(3) == 0

			final := recoverAndFinish(t, sim, src, base, journalPath, rng, crashRecovery)
			assertConverged(t, sim, src, final)
		})
	}
}

// TestChaosRepeatedCrashesSameRun crashes, recovers, crashes the follow-up
// apply again, and recovers again — a run may die more than once before it
// converges.
func TestChaosRepeatedCrashesSameRun(t *testing.T) {
	trials := chaosTrials(t, 8)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(strconv.Itoa(trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			sim := newSim()
			journalPath := filepath.Join(t.TempDir(), "apply.journal")
			base := state.New()

			for round := 0; round < 2; round++ {
				// Recover whatever the previous round left behind.
				if js, err := ReadJournal(journalPath); err != nil {
					t.Fatal(err)
				} else if js != nil {
					st, rep := Recover(context.Background(), sim, js, base, Options{})
					if err := rep.Err(); err != nil {
						t.Fatalf("round %d recover: %v", round, err)
					}
					base = st
					if err := os.Remove(journalPath); err != nil {
						t.Fatal(err)
					}
				}
				p := planFor(t, webConfig, base)
				if len(nonNoop(p)) == 0 {
					break
				}
				point := cloud.CrashBeforeOp
				if rng.Intn(2) == 0 {
					point = cloud.CrashAfterOp
				}
				runCrashedApply(t, sim, p, journalPath, crashMode(rng.Intn(3)), point, 1+rng.Intn(3))
			}

			final := recoverAndFinish(t, sim, webConfig, base, journalPath, rng, false)
			assertConverged(t, sim, webConfig, final)
		})
	}
}
