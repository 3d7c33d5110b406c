package cloudless_test

// The write path's contract (DESIGN.md S23): every mutating verb is admitted,
// recovered, locked, journaled and committed by one helper that owns the
// workspace journal. These tests drive the interleavings that contract
// exists for: a second run while a journaled one is live, a rollback over a
// crashed run's journal, a drift revert against a held lock.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	cloudless "cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/telemetry"
)

// twoGroupConfig is stackConfig's chain plus a vpc nothing else refers to,
// so a plan scoped to either group is disjoint from one scoped to the other.
const twoGroupConfig = stackConfig + `
resource "aws_vpc" "other" {
  name       = "other"
  cidr_block = "10.1.0.0/16"
}
`

// slowSim models provisioning latency (a VM create takes ~270 ms), so a run
// stays in flight long enough to interleave with.
func slowSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0.003
	return cloud.NewSim(opts)
}

// runEvents subscribes to a stack's run boundaries; stop returns them in order.
func runEvents(s *cloudless.Stack) (stop func() []string) {
	sub := s.Subscribe(cloudless.EventFilter{})
	var kinds []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C() {
			if e.Kind == "apply.run_start" || e.Kind == "apply.run_finish" {
				kinds = append(kinds, e.Kind)
			}
		}
	}()
	return func() []string {
		sub.Close()
		<-done
		return kinds
	}
}

// TestSecondRunWaitsForLiveJournal: while a journaled apply is in flight its
// journal is not stale — HasStaleJournal says so, a refreshing plan leaves it
// alone — and a second mutating verb queues behind it instead of "recovering"
// it: neither run sees *ErrJournalRecovered and their run_start/run_finish
// pairs never interleave.
func TestSecondRunWaitsForLiveJournal(t *testing.T) {
	for _, second := range []string{"destroy", "disjoint apply"} {
		t.Run(second, func(t *testing.T) {
			sim := slowSim()
			rec := telemetry.NewRecorder(telemetry.Config{})
			journalPath := filepath.Join(t.TempDir(), "run.journal")
			s, err := cloudless.Open(cloudless.Options{
				Sources:     map[string]string{"main.ccl": twoGroupConfig},
				Cloud:       sim,
				JournalPath: journalPath,
				Telemetry:   rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			stopEvents := runEvents(s)

			first, err := s.PlanIncremental(ctx, "aws_vpc.net")
			if err != nil {
				t.Fatal(err)
			}
			inFlight := make(chan struct{})
			var once sync.Once
			firstDone := make(chan error, 1)
			go func() {
				_, _, err := s.Apply(ctx, first, cloudless.ApplyOptions{
					OnEvent: func(e cloudless.Event) {
						if e.Kind == "apply.op_done" {
							once.Do(func() { close(inFlight) })
						}
					},
				})
				firstDone <- err
			}()
			<-inFlight

			if s.HasStaleJournal() {
				t.Error("HasStaleJournal() = true for the journal of a run in flight")
			}
			// A refreshing plan's head is stale-journal recovery: it must not
			// run against the live journal (nor re-drive its ops, nor unlink it).
			other, err := s.PlanIncremental(ctx, "aws_vpc.other")
			if err != nil {
				t.Fatalf("plan during a live run: %s", err)
			}
			for _, sp := range rec.Spans() {
				if sp.Name() == "lifecycle.recover" {
					t.Error("a plan recovered the journal of a run in flight")
				}
			}
			if _, err := os.Stat(journalPath); err != nil {
				t.Errorf("the live run's journal is gone: %v", err)
			}
			select {
			case err := <-firstDone:
				t.Fatalf("first apply finished before the second run was issued (err=%v); slow the sim", err)
			default:
			}

			// The second mutating verb, issued while the first is in flight.
			switch second {
			case "destroy":
				_, err = s.Destroy(ctx)
			case "disjoint apply":
				_, _, err = s.Apply(ctx, other, cloudless.ApplyOptions{})
			}
			if err != nil {
				t.Errorf("second run (%s): %v", second, err)
			}
			select {
			case err := <-firstDone:
				if err != nil {
					t.Errorf("first apply: %v", err)
				}
			default:
				t.Fatal("second run returned while the first was still in flight")
			}

			if got := stopEvents(); len(got) != 4 || got[0] != "apply.run_start" || got[1] != "apply.run_finish" ||
				got[2] != "apply.run_start" || got[3] != "apply.run_finish" {
				t.Errorf("run boundaries = %v, want two start/finish pairs back to back", got)
			}
			if n := sim.Metrics().IdemReplays; n != 0 {
				t.Errorf("IdemReplays = %d, want 0: something re-drove a live run's ops", n)
			}
			if s.HasStaleJournal() {
				t.Error("journal survived two clean runs")
			}
			final := s.DB().Snapshot()
			want := 7 // vpc, subnet, 2 nics, 2 vms, other vpc
			if second == "destroy" {
				want = 0
			}
			if final.Len() != want || sim.TotalResources() != want {
				t.Errorf("state holds %d resources, cloud %d, want %d", final.Len(), sim.TotalResources(), want)
			}
		})
	}
}

// TestRollbackRecoversCrashedJournalFirst: ExecuteRollback over a crashed
// apply's journal recovers it (instead of truncating it and orphaning the
// in-doubt resource) and reports that the rollback plan predates the recovery.
func TestRollbackRecoversCrashedJournalFirst(t *testing.T) {
	sim := newSim()
	ctx := context.Background()
	s := openJournaled(t, sim, filepath.Join(t.TempDir(), "apply.journal"), nil)
	defer s.Close()
	deployed := deploy(t, s)

	// Scale out, and crash as the first create lands: its response is lost,
	// so the NIC exists in the cloud and only the journal knows about it.
	if err := s.SetVar("vm_count", 3); err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	applyCtx, cancel := context.WithCancel(ctx)
	sim.InjectCrash(cloud.CrashAfterOp, 1, cancel)
	_, _, err = s.Apply(applyCtx, p, cloudless.ApplyOptions{})
	sim.ClearCrash()
	cancel()
	if err == nil {
		t.Fatal("apply succeeded despite injected crash")
	}
	if !s.HasStaleJournal() {
		t.Fatal("no journal left behind by the crashed apply")
	}

	rp, err := s.PlanRollback(deployed)
	if err != nil {
		t.Fatal(err)
	}
	err = s.ExecuteRollback(ctx, rp)
	var recovered *cloudless.ErrJournalRecovered
	if !errors.As(err, &recovered) {
		t.Fatalf("ExecuteRollback over a stale journal = %v, want *ErrJournalRecovered", err)
	}
	if s.HasStaleJournal() {
		t.Error("rollback did not recover the stale journal")
	}
	// No orphan: the recovery recorded the in-doubt NIC, so a fresh rollback
	// plan sees it and takes it down.
	if got, want := sim.TotalResources(), s.DB().Snapshot().Len(); got != want {
		t.Errorf("cloud holds %d resources, state records %d", got, want)
	}
	rp, err = s.PlanRollback(deployed)
	if err != nil {
		t.Fatal(err)
	}
	target, err := s.DB().SnapshotAt(deployed)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecuteRollback(ctx, rp); err != nil {
		t.Fatalf("re-planned rollback: %v", err)
	}
	if got, want := sim.TotalResources(), target.Len(); got != want {
		t.Errorf("cloud holds %d resources after the rollback, the target serial %d: an orphan", got, want)
	}
}

// deploy plans and applies the stack's configuration and returns the serial
// that recorded it.
func deploy(t *testing.T, s *cloudless.Stack) int {
	t.Helper()
	ctx := context.Background()
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	return s.DB().Serial()
}

// TestDriftRevertLocksBeforeItMutates: a revert whose drifted address is
// locked by another transaction reaches the cloud only once that lock is
// released.
func TestDriftRevertLocksBeforeItMutates(t *testing.T) {
	sim := newSim()
	s := openStack(t, sim, "")
	defer s.Close()
	ctx := context.Background()
	deploy(t, s)
	rep := hijackAndScan(t, s, sim)
	addr := rep.Items[0].Addr

	holder := s.DB().Begin("another team")
	if err := holder.Lock(ctx, addr); err != nil {
		t.Fatal(err)
	}
	calls, contended := sim.Metrics().Calls, s.DB().Locks().Stats().Contended
	done := make(chan error, 1)
	go func() {
		_, err := s.ReconcileDrift(ctx, rep, drift.Revert)
		done <- err
	}()
	// Wait for the revert to queue on the held lock; nothing may have
	// reached the cloud by then.
	for deadline := time.Now().Add(10 * time.Second); s.DB().Locks().Stats().Contended == contended; {
		select {
		case err := <-done:
			t.Fatalf("revert finished (err=%v) while its address was locked elsewhere", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("revert never asked for its lock")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sim.Metrics().Calls; got != calls {
		t.Errorf("revert made %d cloud call(s) before it held the lock", got-calls)
	}
	holder.Abort()
	if err := <-done; err != nil {
		t.Fatalf("revert after the lock was released: %v", err)
	}
	if sim.Metrics().Updates < 2 {
		t.Error("revert never reached the cloud")
	}
	if rep, err := s.ScanDrift(ctx); err != nil || len(rep.Items) != 0 {
		t.Errorf("after revert: scan err=%v, %d drift item(s), want 0", err, len(rep.Items))
	}
}

// TestWriteVerbsShareOneRun drives the four mutating verbs through the same
// checks: each publishes exactly one run_start and one run_finish; the
// journal is gone after a clean run and kept after a failed one; a closed
// stack refuses the verb with *ErrStackClosed.
func TestWriteVerbsShareOneRun(t *testing.T) {
	bg := context.Background()
	verbs := []struct {
		name string
		// journaled: the verb writes the run journal (a drift revert does not).
		journaled bool
		// prepare computes the verb's input on a deployed stack and returns
		// the call; its error includes per-op failures.
		prepare func(t *testing.T, s *cloudless.Stack, sim *cloud.Sim) func(context.Context) error
	}{
		{"Apply", true, func(t *testing.T, s *cloudless.Stack, _ *cloud.Sim) func(context.Context) error {
			if err := s.SetVar("vm_count", 3); err != nil {
				t.Fatal(err)
			}
			p, err := s.Plan(bg)
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) error {
				_, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{})
				return err
			}
		}},
		{"Destroy", true, func(_ *testing.T, s *cloudless.Stack, _ *cloud.Sim) func(context.Context) error {
			return func(ctx context.Context) error {
				_, err := s.Destroy(ctx)
				return err
			}
		}},
		{"ExecuteRollback", true, func(t *testing.T, s *cloudless.Stack, _ *cloud.Sim) func(context.Context) error {
			deployed := s.DB().Serial()
			if err := s.SetVar("vm_count", 3); err != nil {
				t.Fatal(err)
			}
			deploy(t, s)
			rp, err := s.PlanRollback(deployed)
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) error { return s.ExecuteRollback(ctx, rp) }
		}},
		{"ReconcileDrift", false, func(t *testing.T, s *cloudless.Stack, sim *cloud.Sim) func(context.Context) error {
			rep := hijackAndScan(t, s, sim)
			return func(ctx context.Context) error {
				res, err := s.ReconcileDrift(ctx, rep, drift.Revert)
				if err == nil && len(res.Errors) > 0 {
					err = errors.New("revert failed")
				}
				return err
			}
		}},
	}
	for _, v := range verbs {
		for _, fail := range []bool{false, true} {
			name := v.name + "/clean"
			if fail {
				name = v.name + "/failed"
			}
			t.Run(name, func(t *testing.T) {
				sim := newSim()
				s := openJournaled(t, sim, filepath.Join(t.TempDir(), "run.journal"), nil)
				deploy(t, s)
				call := v.prepare(t, s, sim)

				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				if fail {
					// The run's first mutating call dies and takes the "process"
					// (its context) with it.
					sim.InjectCrash(cloud.CrashBeforeOp, 1, cancel)
				}
				stopEvents := runEvents(s)
				err := call(ctx)
				sim.ClearCrash()
				if got := stopEvents(); len(got) != 2 || got[0] != "apply.run_start" || got[1] != "apply.run_finish" {
					t.Errorf("run boundaries = %v, want one run_start then one run_finish", got)
				}
				if fail == (err == nil) {
					t.Errorf("failed = %v but the run returned %v", fail, err)
				}
				if want := fail && v.journaled; s.HasStaleJournal() != want {
					t.Errorf("journal kept = %v, want %v", !want, want)
				}

				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				var closed *cloudless.ErrStackClosed
				if err := call(bg); !errors.As(err, &closed) {
					t.Errorf("on a closed stack: %v, want *ErrStackClosed", err)
				}
			})
		}
	}
}

// hijackAndScan renames web[0] behind the stack's back and returns the scan
// that sees it.
func hijackAndScan(t *testing.T, s *cloudless.Stack, sim *cloud.Sim) *cloudless.DriftReport {
	t.Helper()
	ctx := context.Background()
	vm := s.DB().Snapshot().Get("aws_virtual_machine.web[0]")
	if _, err := sim.Update(ctx, cloud.UpdateRequest{
		Type: vm.Type, ID: vm.ID, Principal: "intruder",
		Attrs: map[string]eval.Value{"name": eval.String("hijacked")},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScanDrift(ctx)
	if err != nil || len(rep.Items) != 1 {
		t.Fatalf("scan: %v, %d item(s), want 1", err, len(rep.Items))
	}
	return rep
}
