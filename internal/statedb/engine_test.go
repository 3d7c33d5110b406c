package statedb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"cloudless/internal/eval"
	"cloudless/internal/state"
	"cloudless/internal/wal"
)

// The engine conformance suite: every case runs with the commit log off
// (memory) and on (wal); cases about the log's files run on wal alone.

// everyBackendName lists each name NewEngine accepts with the Name() the
// engine then reports: the two configurations, and the retired alias.
var everyBackendName = []struct{ name, reports string }{
	{BackendMemory, BackendMemory},
	{backendMVCC, BackendMemory},
	{BackendWAL, BackendWAL},
}

// newTestEngine builds a backend over the seed, with a temp dir for wal.
func newTestEngine(t *testing.T, backend string, seed *state.State) *Engine {
	t.Helper()
	opts := EngineOptions{}
	if backend == BackendWAL {
		opts.Dir = t.TempDir()
	}
	eng, err := NewEngine(backend, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// logOffAndOn runs a case against a fresh empty engine per configuration.
func logOffAndOn(t *testing.T, fn func(t *testing.T, e *Engine)) {
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) { fn(t, newTestEngine(t, backend, nil)) })
	}
}

func openWALDir(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := NewEngine(BackendWAL, nil, EngineOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func put(addr string, n int) *Batch {
	return &Batch{
		Base:   BaseUnchecked,
		Desc:   "put " + addr,
		Writes: map[string]*state.ResourceState{addr: rs(addr, n)},
	}
}

func mustCommit(t *testing.T, e *Engine, b *Batch) int {
	t.Helper()
	s, err := e.Commit(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// versionCount is the total of retained version entries.
func versionCount(e *Engine) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, chain := range e.chains {
		n += len(chain)
	}
	return n
}

func ctxb() context.Context { return context.Background() }

func TestNewEngineBackendNames(t *testing.T) {
	if _, err := NewEngine(BackendWAL, nil, EngineOptions{}); err == nil {
		t.Error("wal without Dir accepted")
	}
	if _, err := NewEngine("sharded", nil, EngineOptions{}); err == nil {
		t.Error("unknown backend name accepted")
	}
	e, err := NewEngine("", nil, EngineOptions{})
	if err != nil || e.Name() != BackendMemory {
		t.Errorf(`NewEngine("") = %v, %v; want the memory configuration`, e, err)
	}
}

// TestEngineConformance runs the engine contract under every accepted
// backend name: commit/get/delete round trips, serial monotonicity, snapshot
// isolation from later mutation, outputs replacement, and typed stale-base
// conflicts.
func TestEngineConformance(t *testing.T) {
	for _, backend := range everyBackendName {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			seed := state.New()
			seed.Serial = 3
			seed.Set(rs("aws_vpc.seeded", 100))
			e := newTestEngine(t, backend.name, seed)
			if e.Name() != backend.reports {
				t.Errorf("Name() = %q, want %q", e.Name(), backend.reports)
			}
			base := e.Serial()
			if base != seed.Serial+1 {
				t.Errorf("fresh engine serial = %d, want seed's %d + 1", base, seed.Serial)
			}
			got, err := e.Get("aws_vpc.seeded", 0)
			if err != nil || got == nil || got.Attr("n").AsInt() != 100 {
				t.Fatalf("seeded read = %+v, %v", got, err)
			}
			// The engine copied the seed: mutating it later must not leak in.
			seed.Get("aws_vpc.seeded").Attrs["n"] = eval.Int(-1)
			if got, _ := e.Get("aws_vpc.seeded", 0); got.Attr("n").AsInt() != 100 {
				t.Error("seed mutation leaked into engine")
			}

			// Commit a write and a delete.
			s1 := mustCommit(t, e, put("aws_vpc.a", 1))
			if s1 != base+1 {
				t.Errorf("serial after commit = %d, want %d", s1, base+1)
			}
			s2, err := e.Commit(&Batch{
				Base:    BaseUnchecked,
				Writes:  map[string]*state.ResourceState{"aws_vpc.b": rs("aws_vpc.b", 2)},
				Deletes: map[string]bool{"aws_vpc.seeded": true},
			})
			if err != nil || s2 != s1+1 {
				t.Fatalf("second commit = %d, %v", s2, err)
			}
			if got, _ := e.Get("aws_vpc.seeded", 0); got != nil {
				t.Error("deleted address still readable at latest")
			}
			snap, err := e.Snapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Serial != s2 || snap.Len() != 2 {
				t.Errorf("snapshot serial=%d len=%d, want %d and 2", snap.Serial, snap.Len(), s2)
			}

			// The snapshot's index is the caller's — Set and Remove must not
			// leak back into the engine — over records that are the engine's
			// own: every snapshot shares them, nobody writes them.
			again, _ := e.Snapshot(0)
			if snap.Get("aws_vpc.a") != again.Get("aws_vpc.a") {
				t.Error("two snapshots do not share the record of an untouched address")
			}
			edited := snap.Get("aws_vpc.a").Clone()
			edited.Attrs["n"] = eval.Int(999)
			snap.Set(edited)
			snap.Remove("aws_vpc.b")
			if got, _ := e.Get("aws_vpc.a", 0); got.Attr("n").AsInt() != 1 {
				t.Error("snapshot mutation leaked into engine")
			}
			if got, _ := e.Get("aws_vpc.b", 0); got == nil {
				t.Error("snapshot removal leaked into engine")
			}
			// Get is the read half of read-modify-write: a private copy.
			if got, _ := e.Get("aws_vpc.a", 0); got == again.Get("aws_vpc.a") {
				t.Error("Get handed out the engine's own record")
			}

			// Outputs replacement.
			mustCommit(t, e, &Batch{
				Base:       BaseUnchecked,
				Outputs:    map[string]eval.Value{"url": eval.String("https://x")},
				SetOutputs: true,
			})
			snap, _ = e.Snapshot(0)
			if snap.Outputs["url"].AsString() != "https://x" {
				t.Error("outputs not replaced")
			}
			snap.Outputs["url"] = eval.String("mutated")
			if again, _ := e.Snapshot(0); again.Outputs["url"].AsString() != "https://x" {
				t.Error("snapshot outputs mutation leaked into engine")
			}
			if old, _ := e.Snapshot(s2); len(old.Outputs) != 0 {
				t.Errorf("outputs at serial %d = %v, want none yet", s2, old.Outputs)
			}

			// Stale base: a batch pinned before s2 touching aws_vpc.b
			// (modified at s2) must fail with the typed conflict, as must
			// one touching the address s2 deleted...
			for _, b := range []*Batch{
				{Base: s1, Writes: map[string]*state.ResourceState{"aws_vpc.b": rs("aws_vpc.b", 9)}},
				{Base: s1, Deletes: map[string]bool{"aws_vpc.seeded": true}},
			} {
				before := e.Serial()
				_, err = e.Commit(b)
				var stale *StaleBaseError
				if !errors.As(err, &stale) {
					t.Fatalf("stale commit error = %v, want *StaleBaseError", err)
				}
				if stale.Base != s1 || stale.Committed != s2 {
					t.Errorf("conflict detail = %+v", stale)
				}
				if e.Serial() != before {
					t.Error("rejected batch advanced the serial")
				}
			}
			// ...while a disjoint batch at the same stale base is fine.
			if _, err := e.Commit(&Batch{
				Base:   s1,
				Writes: map[string]*state.ResourceState{"aws_vpc.c": rs("aws_vpc.c", 3)},
			}); err != nil {
				t.Errorf("disjoint stale-base commit rejected: %v", err)
			}

			// Serials outside the retained window answer with the typed
			// sentinel: ahead of the head, and before the engine was opened.
			for _, serial := range []int{e.Serial() + 100, base - 1} {
				if _, err := e.Snapshot(serial); !errors.Is(err, ErrNoSuchSerial) {
					t.Errorf("snapshot at %d: error = %v, want ErrNoSuchSerial", serial, err)
				}
				if _, err := e.Get("aws_vpc.a", serial); !errors.Is(err, ErrNoSuchSerial) {
					t.Errorf("get at %d: error = %v, want ErrNoSuchSerial", serial, err)
				}
			}
			// The opening serial itself stays readable.
			if first, err := e.Snapshot(base); err != nil || first.Len() != 1 || first.Get("aws_vpc.seeded") == nil {
				t.Errorf("snapshot at opening serial = %+v, %v", first, err)
			}
		})
	}
}

// TestEngineConcurrentReadsDuringCommits has point reads and snapshots race
// a committer (run under -race).
func TestEngineConcurrentReadsDuringCommits(t *testing.T) {
	for _, backend := range everyBackendName {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			e := newTestEngine(t, backend.name, nil)
			const addrs = 8
			for i := 0; i < addrs; i++ {
				mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", i), 0))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						addr := fmt.Sprintf("aws_vpc.a%d", r%addrs)
						if _, err := e.Get(addr, 0); err != nil {
							t.Errorf("get: %v", err)
							return
						}
						if _, err := e.Snapshot(0); err != nil {
							t.Errorf("snapshot: %v", err)
							return
						}
					}
				}(r)
			}
			for i := 0; i < 100; i++ {
				mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", i%addrs), i))
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestDBOnEveryBackend drives the full DB/Txn stack (locks, time machine,
// commit/abort) under every accepted backend name.
func TestDBOnEveryBackend(t *testing.T) {
	for _, backend := range everyBackendName {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			db := OpenEngine(newTestEngine(t, backend.name, nil), ResourceLock)
			if db.Backend() != backend.reports {
				t.Errorf("Backend() = %q", db.Backend())
			}
			opened := db.Serial()
			txn := db.Begin("create")
			if err := txn.Lock(ctxb(), "aws_vpc.a"); err != nil {
				t.Fatal(err)
			}
			if err := txn.Put(rs("aws_vpc.a", 1)); err != nil {
				t.Fatal(err)
			}
			if db.Snapshot().Get("aws_vpc.a") != nil {
				t.Error("uncommitted write visible")
			}
			serial, err := txn.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if db.Serial() != serial {
				t.Errorf("db serial %d != commit serial %d", db.Serial(), serial)
			}
			if snap, err := db.SnapshotAt(serial); err != nil || snap.Get("aws_vpc.a") == nil {
				t.Errorf("time machine at %d: %v", serial, err)
			}
			if snap, err := db.SnapshotAt(opened); err != nil || snap.Len() != 0 {
				t.Errorf("time machine at the opening serial %d: %+v, %v", opened, snap, err)
			}
			if _, err := db.SnapshotAt(0); !errors.Is(err, ErrNoSuchSerial) {
				t.Errorf("SnapshotAt(0) error = %v, want ErrNoSuchSerial", err)
			}

			// Stale-base conflict through the Txn layer: pin a txn at the
			// current serial, let a rival commit to the address, then try.
			pinned := db.BeginAt("late", db.Serial())
			rival := db.Begin("rival")
			if err := rival.Lock(ctxb(), "aws_vpc.a"); err != nil {
				t.Fatal(err)
			}
			_ = rival.Put(rs("aws_vpc.a", 2))
			if _, err := rival.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := pinned.Lock(ctxb(), "aws_vpc.a"); err != nil {
				t.Fatal(err)
			}
			_ = pinned.Put(rs("aws_vpc.a", 3))
			_, err = pinned.Commit()
			var stale *StaleBaseError
			if !errors.As(err, &stale) {
				t.Fatalf("pinned commit error = %v, want *StaleBaseError", err)
			}
			// The conflicted txn is still open: the caller aborts it.
			pinned.Abort()
			if db.Locks().Holder("aws_vpc.a") != 0 {
				t.Error("conflicted txn leaked its lock")
			}
			if got := db.Snapshot().Get("aws_vpc.a").Attr("n").AsInt(); got != 2 {
				t.Errorf("rival's write = %d, want 2", got)
			}
		})
	}
}

// TestMVCCPinnedReaderIsolation is the headline guarantee of the version
// chains: a reader pinned at serial N never observes writes from serial N+1
// (or later), even while those commits land concurrently. 16 concurrent
// writers commit under -race while pinned readers continuously re-verify
// their snapshots. The pin sits where the churn carries the engine across a
// trim and leaves it inside the retained window.
func TestMVCCPinnedReaderIsolation(t *testing.T) {
	logOffAndOn(t, func(t *testing.T, e *Engine) {
		for e.Serial() < 2*compactEvery-32 {
			mustCommit(t, e, put("aws_vpc.filler", e.Serial()))
		}
		// Lay down a known baseline: addr i holds value i at pinSerial.
		const addrs = 8
		for i := 0; i < addrs; i++ {
			mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", i), i))
		}
		pinSerial := e.Serial()
		pinned, err := e.Snapshot(pinSerial)
		if err != nil {
			t.Fatal(err)
		}

		const writers, each = 16, 3
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < each; i++ {
					addr := fmt.Sprintf("aws_vpc.a%d", (w+i)%addrs)
					if _, err := e.Commit(put(addr, 1000+w*100+i)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		// Readers pinned at pinSerial race the writers the whole time.
		readErr := make(chan error, 4)
		done := make(chan struct{})
		for r := 0; r < 4; r++ {
			go func() {
				for {
					select {
					case <-done:
						readErr <- nil
						return
					default:
					}
					for i := 0; i < addrs; i++ {
						addr := fmt.Sprintf("aws_vpc.a%d", i)
						got, err := e.Get(addr, pinSerial)
						if err != nil {
							readErr <- fmt.Errorf("pinned get %s: %w", addr, err)
							return
						}
						if n := got.Attr("n").AsInt(); n != i {
							readErr <- fmt.Errorf("pinned reader at serial %d saw %s=%d, want %d", pinSerial, addr, n, i)
							return
						}
					}
					snap, err := e.Snapshot(pinSerial)
					if err != nil {
						readErr <- fmt.Errorf("pinned snapshot: %w", err)
						return
					}
					if snap.Serial != pinSerial {
						readErr <- fmt.Errorf("pinned snapshot serial = %d, want %d", snap.Serial, pinSerial)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(done)
		for r := 0; r < 4; r++ {
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
		}

		// After all 48 commits, and the trim they crossed: the pinned
		// snapshot still reads as before, the latest snapshot reflects the
		// churn, and re-materializing at pinSerial matches the copy taken
		// before the churn started.
		if e.Serial() != pinSerial+writers*each {
			t.Errorf("final serial = %d, want %d", e.Serial(), pinSerial+writers*each)
		}
		if _, err := e.Snapshot(compactEvery - 1); !errors.Is(err, ErrNoSuchSerial) {
			t.Errorf("the churn crossed no trim: read below its floor = %v", err)
		}
		again, err := e.Snapshot(pinSerial)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < addrs; i++ {
			addr := fmt.Sprintf("aws_vpc.a%d", i)
			if got := again.Get(addr).Attr("n").AsInt(); got != pinned.Get(addr).Attr("n").AsInt() {
				t.Errorf("re-materialized %s = %d, want %d", addr, got, i)
			}
		}
		latest, _ := e.Snapshot(0)
		anyChanged := false
		for i := 0; i < addrs; i++ {
			if latest.Get(fmt.Sprintf("aws_vpc.a%d", i)).Attr("n").AsInt() >= 1000 {
				anyChanged = true
			}
		}
		if !anyChanged {
			t.Error("writers' churn not visible at latest serial")
		}
	})
}

// TestMVCCSerialBoundary pins the exact N / N+1 boundary: a snapshot at N
// taken *after* N+1 committed still shows N's world.
func TestMVCCSerialBoundary(t *testing.T) {
	logOffAndOn(t, func(t *testing.T, e *Engine) {
		n := mustCommit(t, e, put("aws_vpc.x", 1))
		mustCommit(t, e, &Batch{
			Base:   BaseUnchecked,
			Writes: map[string]*state.ResourceState{"aws_vpc.x": rs("aws_vpc.x", 2), "aws_vpc.y": rs("aws_vpc.y", 2)},
		})
		atN, err := e.Snapshot(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := atN.Get("aws_vpc.x").Attr("n").AsInt(); got != 1 {
			t.Errorf("snapshot at N: x = %d, want 1", got)
		}
		if atN.Get("aws_vpc.y") != nil {
			t.Error("snapshot at N shows resource created at N+1")
		}
		// Point reads at N agree.
		if got, _ := e.Get("aws_vpc.y", n); got != nil {
			t.Error("Get at N shows resource created at N+1")
		}
		// Deletes are versioned too: delete x at N+2, N+1 still shows it.
		mustCommit(t, e, &Batch{Base: BaseUnchecked, Deletes: map[string]bool{"aws_vpc.x": true}})
		if got, err := e.Get("aws_vpc.x", n+1); err != nil || got == nil || got.Attr("n").AsInt() != 2 {
			t.Errorf("Get x at N+1 after delete at N+2 = %v, %v; want n=2", got, err)
		}
		if got, _ := e.Get("aws_vpc.x", 0); got != nil {
			t.Error("deleted resource visible at latest")
		}
	})
}

// TestHistoryGrowsPerCommit is the structural check on what the time machine
// costs: K one-resource transactions over an N-resource seed retain N+K
// versions — not N×K, a copy of the state per commit — and every one of the
// K+1 serials stays readable.
func TestHistoryGrowsPerCommit(t *testing.T) {
	const n, k = 50, 20
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			seed := state.New()
			for i := 0; i < n; i++ {
				seed.Set(rs(fmt.Sprintf("aws_vpc.r%d", i), 0))
			}
			db := OpenEngine(newTestEngine(t, backend, seed), ResourceLock)
			opened := db.Serial()
			for i := 1; i <= k; i++ {
				txn := db.Begin(fmt.Sprintf("c%d", i))
				if err := txn.Lock(ctxb(), "aws_vpc.r0"); err != nil {
					t.Fatal(err)
				}
				if err := txn.Put(rs("aws_vpc.r0", i)); err != nil {
					t.Fatal(err)
				}
				if _, err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got := versionCount(db.engine); got != n+k {
				t.Errorf("retained versions = %d, want %d (N+K)", got, n+k)
			}
			for i := 0; i <= k; i++ {
				snap, err := db.SnapshotAt(opened + i)
				if err != nil {
					t.Fatal(err)
				}
				if snap.Len() != n || snap.Get("aws_vpc.r0").Attr("n").AsInt() != i {
					t.Errorf("serial %d: len=%d r0=%v", opened+i, snap.Len(), snap.Get("aws_vpc.r0").Attr("n"))
				}
			}
		})
	}
}

// TestRetentionWindow: the time machine is bounded. Over 1 000 commits to
// one address the engine never holds more than two windows of versions plus
// one per address; every serial still inside the window reads exactly as it
// did when it was the head, one below it is ErrNoSuchSerial, a batch pinned
// below it is stale, and an address deleted before the floor leaves nothing
// behind.
func TestRetentionWindow(t *testing.T) {
	logOffAndOn(t, func(t *testing.T, e *Engine) {
		const commits, addrs = 1000, 3
		mustCommit(t, e, put("aws_vpc.idle", 7))
		mustCommit(t, e, put("aws_vpc.gone", 8))
		mustCommit(t, e, &Batch{Base: BaseUnchecked, Deletes: map[string]bool{"aws_vpc.gone": true}})
		early := e.Serial()
		atTheTime := map[int]*state.State{}
		for i := 0; i < commits; i++ {
			b := put("aws_vpc.hot", i)
			b.Outputs, b.SetOutputs = map[string]eval.Value{"n": eval.Int(i)}, true
			serial := mustCommit(t, e, b)
			snap, err := e.Snapshot(0)
			if err != nil || snap.Serial != serial {
				t.Fatalf("head snapshot after commit %d = %v, %v", serial, snap, err)
			}
			atTheTime[serial] = snap
			e.mu.RLock()
			outputs := len(e.outputs)
			e.mu.RUnlock()
			if got := versionCount(e); got > 2*compactEvery+addrs || outputs > 2*compactEvery+1 {
				t.Fatalf("after commit %d: %d resource and %d output versions retained, want at most %d and %d",
					serial, got, outputs, 2*compactEvery+addrs, 2*compactEvery+1)
			}
		}
		e.mu.RLock()
		oldest, goneKept := e.oldest, e.chains["aws_vpc.gone"] != nil
		e.mu.RUnlock()
		if head := e.Serial(); oldest < head-2*compactEvery || oldest > head-compactEvery {
			t.Errorf("window = [%d, %d], want between %d and %d commits deep", oldest, head, compactEvery, 2*compactEvery)
		}
		if goneKept {
			t.Error("an address deleted below the floor still holds a chain")
		}
		for serial := oldest; serial <= e.Serial(); serial++ {
			got, err := e.Snapshot(serial)
			if err != nil {
				t.Fatalf("read at %d inside the window: %v", serial, err)
			}
			want := atTheTime[serial]
			if got.Len() != 2 || got.Get("aws_vpc.idle").Attr("n").AsInt() != 7 ||
				!got.Get("aws_vpc.hot").Attr("n").Equal(want.Get("aws_vpc.hot").Attr("n")) ||
				!got.Outputs["n"].Equal(want.Outputs["n"]) {
				t.Fatalf("serial %d reads %v / %v, at the time it read %v / %v", serial,
					got.Get("aws_vpc.hot").Attr("n"), got.Outputs["n"], want.Get("aws_vpc.hot").Attr("n"), want.Outputs["n"])
			}
		}
		for _, serial := range []int{oldest - 1, early, 1} {
			if _, err := e.Snapshot(serial); !errors.Is(err, ErrNoSuchSerial) {
				t.Errorf("Snapshot(%d) below the window = %v, want ErrNoSuchSerial", serial, err)
			}
			if _, err := e.Get("aws_vpc.idle", serial); !errors.Is(err, ErrNoSuchSerial) {
				t.Errorf("Get at %d below the window = %v, want ErrNoSuchSerial", serial, err)
			}
		}

		// aws_vpc.gone was deleted after `early-1`; its chain is gone, so
		// only the window rule can still call that base stale.
		var stale *StaleBaseError
		late := put("aws_vpc.gone", 1)
		late.Base = early - 1
		if _, err := e.Commit(late); !errors.As(err, &stale) || stale.Base != early-1 || stale.Committed != oldest {
			t.Errorf("commit pinned below the window = %v, want a stale base naming the window's floor %d", err, oldest)
		}
		late.Base = oldest
		if _, err := e.Commit(late); err != nil {
			t.Errorf("commit pinned at the window's floor: %v", err)
		}
	})
}

// TestReopenAfterTrim: a reopened engine lands on the same serial and
// contents whatever was trimmed, and keeps committing from there.
func TestReopenAfterTrim(t *testing.T) {
	dir := t.TempDir()
	e := openWALDir(t, dir)
	for i := 0; i < 3*compactEvery+5; i++ {
		mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", i%4), i))
	}
	head, want := e.Serial(), stateJSON(t, e)
	if _, err := e.Snapshot(2); !errors.Is(err, ErrNoSuchSerial) {
		t.Fatalf("nothing was trimmed: read at 2 = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := openWALDir(t, dir)
	if re.Serial() != head || stateJSON(t, re) != want {
		t.Errorf("reopened at serial %d, want %d with the same contents", re.Serial(), head)
	}
	mustCommit(t, re, put("aws_vpc.a0", -1))
	if re.Serial() != head+1 {
		t.Errorf("commit after reopen landed at %d, want %d", re.Serial(), head+1)
	}
}

// stateJSON renders the head state for comparison.
func stateJSON(t *testing.T, e *Engine) string {
	t.Helper()
	snap, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestWALReplayOnReopen: a cleanly closed log replays every commit, and the
// reopened engine serves pinned reads across the replayed serials.
func TestWALReplayOnReopen(t *testing.T) {
	dir := t.TempDir()
	e := openWALDir(t, dir)
	first := e.Serial()
	var last int
	for i := 0; i < 5; i++ {
		last = mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", i), i))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(put("aws_vpc.late", 1)); err == nil {
		t.Error("commit on a closed log succeeded")
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}

	re := openWALDir(t, dir)
	if re.Serial() != last {
		t.Fatalf("reopened serial = %d, want %d", re.Serial(), last)
	}
	for i := 0; i < 5; i++ {
		got, err := re.Get(fmt.Sprintf("aws_vpc.a%d", i), 0)
		if err != nil || got == nil || got.Attr("n").AsInt() != i {
			t.Errorf("replayed a%d = %+v, %v", i, got, err)
		}
		// Serial first+i+1 created a<i>: the replayed chains keep it pinned.
		at, err := re.Snapshot(first + i + 1)
		if err != nil || at.Len() != i+1 {
			t.Errorf("reopened snapshot at %d = %+v, %v; want %d resources", first+i+1, at, err, i+1)
		}
	}
	// The durable dir wins over whatever seed the caller passes on reopen.
	seeded := state.New()
	seeded.Set(rs("aws_vpc.imposter", 1))
	re.Close()
	re2, err := NewEngine(BackendWAL, seeded, EngineOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got, _ := re2.Get("aws_vpc.imposter", 0); got != nil {
		t.Error("seed overrode durable state on reopen")
	}
	if re2.Serial() != last {
		t.Errorf("reopen with seed: serial = %d, want %d", re2.Serial(), last)
	}
}

// TestWALCrashRecoveryTornTail simulates a kill mid-commit: the final log
// record is truncated partway through its payload. Reopen must drop the torn
// tail and recover to the last *durable* commit with zero lost commits.
func TestWALCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	e := openWALDir(t, dir)
	var durable int
	for i := 0; i < 4; i++ {
		durable = mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", i), i))
	}
	// One more commit, which we'll tear.
	mustCommit(t, e, put("aws_vpc.torn", 99))
	preTearSize := e.log.Size()
	e.Close()

	// Simulate the crash: keep the header of the last record but cut its
	// payload short, as if the process died mid-write.
	logPath := filepath.Join(dir, walLogName)
	if err := os.Truncate(logPath, preTearSize-5); err != nil {
		t.Fatal(err)
	}

	re := openWALDir(t, dir)
	if re.Serial() != durable {
		t.Fatalf("recovered serial = %d, want last durable %d", re.Serial(), durable)
	}
	if got, _ := re.Get("aws_vpc.torn", 0); got != nil {
		t.Error("torn commit visible after recovery")
	}
	for i := 0; i < 4; i++ {
		got, err := re.Get(fmt.Sprintf("aws_vpc.a%d", i), 0)
		if err != nil || got == nil || got.Attr("n").AsInt() != i {
			t.Errorf("lost durable commit a%d: %+v, %v", i, got, err)
		}
	}
	// The engine keeps accepting commits after recovery, and the replaced
	// tail replays on the next reopen.
	if s := mustCommit(t, re, put("aws_vpc.post", 1)); s != durable+1 {
		t.Errorf("post-recovery serial = %d, want %d", s, durable+1)
	}
	re.Close()
	if re2 := openWALDir(t, dir); re2.Serial() != durable+1 {
		t.Errorf("second reopen serial = %d, want %d", re2.Serial(), durable+1)
	}
}

// TestWALCrashRecoveryCorruptRecord: a bit-flip inside a record's payload
// fails its CRC; replay stops there, dropping the corrupt record and
// everything after it.
func TestWALCrashRecoveryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	e := openWALDir(t, dir)
	s1 := mustCommit(t, e, put("aws_vpc.good", 1))
	goodSize := e.log.Size()
	mustCommit(t, e, put("aws_vpc.bad", 2))
	mustCommit(t, e, put("aws_vpc.after", 3))
	e.Close()

	// Flip a byte inside the second record's payload (past its 8-byte
	// frame header) so the CRC check fails.
	logPath := filepath.Join(dir, walLogName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[goodSize+8+4] ^= 0xFF
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openWALDir(t, dir)
	if re.Serial() != s1 {
		t.Fatalf("recovered serial = %d, want %d (first intact commit)", re.Serial(), s1)
	}
	if got, _ := re.Get("aws_vpc.good", 0); got == nil {
		t.Error("intact commit lost")
	}
	if got, _ := re.Get("aws_vpc.after", 0); got != nil {
		t.Error("record after the corrupt one survived replay")
	}
}

func stateLen(t *testing.T, e *Engine) int {
	t.Helper()
	s, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	return s.Len()
}

func logFileSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, walLogName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// loggedSerials decodes the serial of every frame in the directory's log.
func loggedSerials(t *testing.T, dir string) []int {
	t.Helper()
	var serials []int
	if _, _, err := wal.Replay(filepath.Join(dir, walLogName), func(payload []byte) bool {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("undecodable frame in the log: %v", err)
		}
		serials = append(serials, rec.Serial)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return serials
}

// serialRange lists from..to inclusive.
func serialRange(from, to int) []int {
	var out []int
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// window captures everything the time machine serves: the encoded state at
// every readable serial, and the history listing.
func window(t *testing.T, e *Engine) (states map[int]string, history []CommitInfo) {
	t.Helper()
	states = map[int]string{}
	history = e.History()
	for _, c := range history {
		snap, err := e.Snapshot(c.Serial)
		if err != nil {
			t.Fatalf("serial %d is listed but unreadable: %v", c.Serial, err)
		}
		if snap.Len() != c.Resources {
			t.Errorf("history counts %d resources at serial %d, the snapshot holds %d", c.Resources, c.Serial, snap.Len())
		}
		raw, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		states[c.Serial] = string(raw)
	}
	return states, history
}

// TestReopenKeepsTheWindow: a reopened engine is the engine that was closed.
// Whatever the commit count — short of a window, on a compaction boundary,
// just past one, many windows in — the reopen reaches back to the same oldest
// serial, reads the same bytes at every serial in between and lists the same
// history, so a process-per-command front end or a restarted daemon can name
// a rollback target exactly as a long-lived one can.
func TestReopenKeepsTheWindow(t *testing.T) {
	for _, commits := range []int{30, 70, 127, 128, 130, 190, 300, 1000} {
		commits := commits
		t.Run(fmt.Sprint(commits), func(t *testing.T) {
			dir := t.TempDir()
			e := openWALDir(t, dir)
			for i := 0; i < commits; i++ {
				b := put(fmt.Sprintf("aws_vpc.a%d", i%7), i)
				b.Desc = fmt.Sprintf("commit %d", i)
				switch {
				case i%5 == 4:
					b.Deletes = map[string]bool{fmt.Sprintf("aws_vpc.a%d", (i+3)%7): true}
				case i%11 == 0:
					b.Outputs, b.SetOutputs = map[string]eval.Value{"n": eval.Int(i)}, true
				}
				mustCommit(t, e, b)
			}
			states, history := window(t, e)
			oldest, head := history[0].Serial, e.Serial()
			if len(history) != head-oldest+1 || history[len(history)-1].Serial != head || history[0].Desc != "" {
				t.Fatalf("history spans %d entries from %+v, want every serial of [%d, %d] and a base with no description",
					len(history), history[0], oldest, head)
			}
			if reach := head - oldest; commits >= 2*compactEvery && (reach < compactEvery || reach >= 2*compactEvery) {
				t.Errorf("live reach after %d commits = %d, want %d..%d", commits, reach, compactEvery, 2*compactEvery-1)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			re := openWALDir(t, dir)
			reStates, reHistory := window(t, re)
			if !slices.Equal(reHistory, history) {
				t.Errorf("reopened history = %+v\nwant %+v", reHistory, history)
			}
			for serial, want := range states {
				if reStates[serial] != want {
					t.Errorf("serial %d reads differently after the reopen:\n got %s\nwant %s", serial, reStates[serial], want)
				}
			}
			// (0 is not a serial: the engine reads it as "latest".)
			if _, err := re.Snapshot(oldest - 1); oldest > 1 && !errors.Is(err, ErrNoSuchSerial) {
				t.Errorf("read below the window after the reopen = %v, want ErrNoSuchSerial", err)
			}
		})
	}
}

// TestWALCompaction: the files follow the window. Until the floor first moves
// snapshot.json is the seed and the log holds every commit; when it moves the
// snapshot is rewritten at the floor and the log holds exactly the frames
// above it, so a serial is readable after a reopen iff it was before the close.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	e := openWALDir(t, dir)
	first := e.Serial()
	snapshotOnDisk := func() *state.State {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, walSnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := state.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	for e.Serial() < 2*compactEvery-1 {
		mustCommit(t, e, put(fmt.Sprintf("aws_vpc.a%d", e.Serial()%5), e.Serial()))
	}
	if size := logFileSize(t, dir); size == 0 || size != e.log.Size() {
		t.Fatalf("log size before compaction = %d on disk, %d tracked", size, e.log.Size())
	}
	if got := loggedSerials(t, dir); snapshotOnDisk().Serial != first || !slices.Equal(got, serialRange(first+1, e.Serial())) {
		t.Fatalf("before the floor moves: snapshot at %d, log holds %v; want the seed at %d and every commit",
			snapshotOnDisk().Serial, got, first)
	}

	serial := mustCommit(t, e, put("aws_vpc.boundary", 0))
	floor := serial - compactEvery
	atFloor, err := e.Snapshot(floor)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := atFloor.Encode()
	got, _ := snapshotOnDisk().Encode()
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot.json after compaction is not the state at the floor %d:\n got %s\nwant %s", floor, got, want)
	}
	if got := loggedSerials(t, dir); !slices.Equal(got, serialRange(floor+1, serial)) {
		t.Errorf("log after compaction holds %v, want exactly (%d, %d]", got, floor, serial)
	}
	if size := logFileSize(t, dir); size != e.log.Size() {
		t.Errorf("log size after compaction = %d on disk, %d tracked", size, e.log.Size())
	}
	if _, err := e.Snapshot(floor - 1); !errors.Is(err, ErrNoSuchSerial) {
		t.Errorf("read below the floor = %v, want ErrNoSuchSerial", err)
	}

	// The rewritten log keeps taking records.
	after := mustCommit(t, e, put("aws_vpc.after", 1))
	if got := loggedSerials(t, dir); !slices.Equal(got, serialRange(floor+1, after)) {
		t.Errorf("log after one more commit holds %v, want (%d, %d]", got, floor, after)
	}
	readable := map[int]bool{}
	for s := 1; s <= after+1; s++ {
		_, err := e.Snapshot(s)
		readable[s] = err == nil
	}
	wantState := stateJSON(t, e)
	e.Close()
	re := openWALDir(t, dir)
	if re.Serial() != after || stateJSON(t, re) != wantState {
		t.Errorf("reopen after compaction: serial = %d, want %d with the same contents", re.Serial(), after)
	}
	for s := 1; s <= after+1; s++ {
		if _, err := re.Snapshot(s); (err == nil) != readable[s] {
			t.Errorf("serial %d: readable before the close = %v, after the reopen: %v", s, readable[s], err)
		}
	}
}

// TestCommitSurvivesFailedCompaction: a commit that is durable in the log
// has landed even when the compaction it triggers fails, whichever of the two
// files the fault hits. It returns its serial (so Txn.Commit finishes the
// transaction), compaction is retried by the next commit, everything
// acknowledged is on disk meanwhile, and Close reports a failure that was
// never made good.
func TestCommitSurvivesFailedCompaction(t *testing.T) {
	// commitPast drives transactions until the floor has moved at least once.
	commitPast := func(t *testing.T, db *DB) (last int) {
		t.Helper()
		for i := 0; db.Serial() < 2*compactEvery+3; i++ {
			txn := db.Begin("c")
			if err := txn.Lock(ctxb(), "aws_vpc.a"); err != nil {
				t.Fatal(err)
			}
			if err := txn.Put(rs("aws_vpc.a", i)); err != nil {
				t.Fatal(err)
			}
			serial, err := txn.Commit()
			if err != nil {
				t.Fatalf("commit %d reported failure though it is durable: %v", i, err)
			}
			if serial != db.Serial() || serial <= last {
				t.Fatalf("commit %d: serial %d, db at %d, previous %d", i, serial, db.Serial(), last)
			}
			last = serial
		}
		if db.Locks().Holder("aws_vpc.a") != 0 {
			t.Error("a transaction is still pending over state that moved")
		}
		return last
	}
	// reopensTo checks a copy of the directory as it stands holds every
	// acknowledged commit.
	reopensTo := func(t *testing.T, dir string, last int) {
		t.Helper()
		cp := t.TempDir()
		for _, name := range []string{walLogName, walSnapshotName} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cp, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re := openWALDir(t, cp)
		if re.Serial() != last {
			t.Errorf("reopen of the directory as the fault left it: serial = %d, want %d", re.Serial(), last)
		}
		for s := last - compactEvery; s <= last; s++ {
			if _, err := re.Snapshot(s); err != nil {
				t.Errorf("acknowledged serial %d unreadable after the reopen: %v", s, err)
			}
		}
	}

	// SaveFile and Rewrite write through <name>.tmp; a non-empty directory in
	// its place fails that file's half of every compaction, and leaves the
	// log usable.
	for _, blocked := range []string{walSnapshotName, walLogName} {
		blocked := blocked
		t.Run(blocked, func(t *testing.T) {
			dir := t.TempDir()
			db := OpenEngine(openWALDir(t, dir), ResourceLock)
			e := db.engine
			blocker := filepath.Join(dir, blocked+".tmp")
			if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			last := commitPast(t, db)
			if e.log.compactErr == nil {
				t.Fatal("compaction did not fail; the test's blocker is ineffective")
			}
			if got := loggedSerials(t, dir); got[len(got)-1] != last || logFileSize(t, dir) != e.log.Size() {
				t.Errorf("log after failed compactions ends at %d (%d bytes on disk, %d tracked); want it still growing to %d",
					got[len(got)-1], logFileSize(t, dir), e.log.Size(), last)
			}
			reopensTo(t, dir, last)

			// Unblock: the next commit retries the compaction and clears the error.
			if err := os.RemoveAll(blocker); err != nil {
				t.Fatal(err)
			}
			last = mustCommit(t, e, put("aws_vpc.b", 1))
			floor := compactEvery
			if got := loggedSerials(t, dir); e.log.compactErr != nil || !slices.Equal(got, serialRange(floor+1, last)) {
				t.Errorf("retry after unblocking: compactErr = %v, log holds %v, want (%d, %d]", e.log.compactErr, got, floor, last)
			}
			if err := e.Close(); err != nil {
				t.Errorf("Close after a made-good compaction = %v", err)
			}
			if got := openWALDir(t, dir).Serial(); got != last {
				t.Errorf("reopen after retry: serial = %d, want %d", got, last)
			}
		})
	}

	// The rewrite loses the file after its rename (injected through the log's
	// Faulty file: closing the old handle moves the new log aside): the commit
	// that triggered it is acknowledged all the same, the log refuses every
	// later one rather than write where no restart reads, Close says so, and
	// the files hold every acknowledged commit.
	t.Run("rewrite loses the log", func(t *testing.T) {
		dir := t.TempDir()
		e := openWALDir(t, dir)
		logPath := filepath.Join(dir, walLogName)
		wal.WrapFaulty(e.log.Log).Trace = func(op string, _ []byte) {
			if op == "close" {
				os.Rename(logPath, logPath+".moved")
				os.Mkdir(logPath, 0o755)
			}
		}
		var last int
		for e.Serial() < 2*compactEvery {
			last = mustCommit(t, e, put("aws_vpc.a", e.Serial()))
		}
		if e.log.compactErr == nil {
			t.Fatal("compaction did not fail; the test's fault is ineffective")
		}
		if _, err := e.Commit(put("aws_vpc.refused", 1)); err == nil {
			t.Error("commit acknowledged into a log no restart will read")
		}
		if err := e.Close(); err == nil {
			t.Error("Close hid a compaction that lost the log")
		}
		if err := os.Remove(logPath); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(logPath+".moved", logPath); err != nil {
			t.Fatal(err)
		}
		reopensTo(t, dir, last)
	})

	// A failure never made good surfaces from Close.
	dir := t.TempDir()
	e := openWALDir(t, dir)
	if err := os.MkdirAll(filepath.Join(dir, walSnapshotName+".tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for e.Serial() < 2*compactEvery {
		mustCommit(t, e, put("aws_vpc.a", e.Serial()))
	}
	if err := e.Close(); err == nil {
		t.Error("Close hid a compaction that failed and was never retried successfully")
	}
}

// TestFailedAppendLeavesNoTornFrame: a failed write or fsync must not leave
// a partial frame in front of later records — replay stops at the first bad
// frame, so every commit acknowledged behind it would vanish on reopen. The
// log is cut back to its last durable offset; when even that fails, no later
// commit is acknowledged.
func TestFailedAppendLeavesNoTornFrame(t *testing.T) {
	dir := t.TempDir()
	e := openWALDir(t, dir)
	fl := wal.WrapFaulty(e.log.Log)
	acked := map[string]int{}
	commit := func(addr string) error {
		s, err := e.Commit(put(addr, 1))
		if err == nil {
			acked[addr] = s
		}
		return err
	}
	if err := commit("aws_vpc.before"); err != nil {
		t.Fatal(err)
	}
	fl.Set(wal.Faults{ShortWrite: true})
	if err := commit("aws_vpc.torn"); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("torn write: commit error = %v", err)
	}
	fl.Set(wal.Faults{FailSync: true})
	if err := commit("aws_vpc.unsynced"); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("failed fsync: commit error = %v", err)
	}
	fl.Set(wal.Faults{})
	if size := logFileSize(t, dir); size != e.log.Size() {
		t.Errorf("log holds %d bytes, %d are durable: the failed frames were not cut out", size, e.log.Size())
	}
	for _, addr := range []string{"aws_vpc.torn", "aws_vpc.unsynced"} {
		if got, _ := e.Get(addr, 0); got != nil {
			t.Errorf("%s is visible though its commit failed", addr)
		}
	}
	if err := commit("aws_vpc.after"); err != nil {
		t.Fatalf("commit after a repaired append: %v", err)
	}
	if acked["aws_vpc.after"] != acked["aws_vpc.before"]+1 {
		t.Errorf("serials %v: a failed commit consumed a serial", acked)
	}

	// The cut itself fails: the log cannot be trusted again.
	fl.Set(wal.Faults{ShortWrite: true, FailTruncate: true})
	if err := commit("aws_vpc.stuck"); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("torn write with failing truncate: commit error = %v", err)
	}
	fl.Set(wal.Faults{})
	if err := commit("aws_vpc.refused"); err == nil {
		t.Error("commit acknowledged behind a partial frame that could not be removed")
	}
	e.Close()

	re := openWALDir(t, dir)
	if want := acked["aws_vpc.after"]; re.Serial() != want {
		t.Errorf("reopened serial = %d, want the last acknowledged %d", re.Serial(), want)
	}
	for addr, serial := range acked {
		if got, err := re.Get(addr, serial); err != nil || got == nil {
			t.Errorf("acknowledged commit %s@%d lost on reopen: %v, %v", addr, serial, got, err)
		}
	}
	if stateLen(t, re) != len(acked) {
		t.Errorf("reopened state holds %d resources, want the %d acknowledged", stateLen(t, re), len(acked))
	}
}

// formatFixture is the seed and the commits that produced
// testdata/pr11-format.
func formatFixture() (seed *state.State, batches []*Batch) {
	seed = state.New()
	seed.Serial = 3
	seed.Set(rs("aws_vpc.seeded", 100))
	seed.Set(rs("aws_vpc.kept", 7))
	seed.Outputs["region"] = eval.String("us-east-1")
	return seed, []*Batch{
		{Base: BaseUnchecked, Desc: "put a", Writes: map[string]*state.ResourceState{"aws_vpc.a": rs("aws_vpc.a", 1)}},
		{Base: BaseUnchecked, Desc: "swap", Writes: map[string]*state.ResourceState{"aws_vpc.b": rs("aws_vpc.b", 2)}, Deletes: map[string]bool{"aws_vpc.seeded": true}},
		{Base: BaseUnchecked, Desc: "outputs", Outputs: map[string]eval.Value{"url": eval.String("https://x")}, SetOutputs: true},
		{Base: BaseUnchecked, Desc: "put a again", Writes: map[string]*state.ResourceState{"aws_vpc.a": rs("aws_vpc.a", 4)}},
	}
}

// TestOnDiskFormatUnchanged holds the directory format to the one the WAL
// engine of PR 11 wrote: testdata/pr11-format was produced by that commit's
// NewEngine(BackendWAL, seed) + the four commits of formatFixture. It must
// reopen to the same serial and contents, and the same commits through this
// engine must produce the same bytes.
func TestOnDiskFormatUnchanged(t *testing.T) {
	seed, batches := formatFixture()
	fixture := map[string][]byte{}
	old := t.TempDir()
	for _, name := range []string{walSnapshotName, walLogName} {
		raw, err := os.ReadFile(filepath.Join("testdata", "pr11-format", name))
		if err != nil {
			t.Fatal(err)
		}
		fixture[name] = raw
		if err := os.WriteFile(filepath.Join(old, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := openWALDir(t, old)
	if e.Serial() != 8 {
		t.Fatalf("fixture reopened at serial %d, want 8", e.Serial())
	}
	got, _ := e.Snapshot(0)
	if got.Len() != 3 || got.Get("aws_vpc.seeded") != nil ||
		got.Get("aws_vpc.a").Attr("n").AsInt() != 4 || got.Get("aws_vpc.b").Attr("n").AsInt() != 2 ||
		got.Get("aws_vpc.kept").Attr("n").AsInt() != 7 {
		t.Errorf("fixture contents = %v", got.Addrs())
	}
	if len(got.Outputs) != 1 || got.Outputs["url"].AsString() != "https://x" {
		t.Errorf("fixture outputs = %v", got.Outputs)
	}
	// The replayed records rebuild the chains back to the snapshot.
	if at4, err := e.Snapshot(4); err != nil || at4.Len() != 2 || at4.Outputs["region"].AsString() != "us-east-1" {
		t.Errorf("fixture at its snapshot serial = %+v, %v", at4, err)
	}
	if at5, err := e.Get("aws_vpc.a", 5); err != nil || at5.Attr("n").AsInt() != 1 {
		t.Errorf("fixture a@5 = %v, %v", at5, err)
	}
	if logFileSize(t, old) != int64(len(fixture[walLogName])) {
		t.Error("reopen cut an intact fixture log")
	}

	fresh := t.TempDir()
	w, err := NewEngine(BackendWAL, seed, EngineOptions{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		mustCommit(t, w, b)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range fixture {
		raw, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s differs from the PR 11 format:\n got %q\nwant %q", name, raw, want)
		}
	}
}

// TestSnapshotsShareRecords pins the read contract: a snapshot is a private
// index over the engine's own immutable records. Untouched addresses keep
// their pointer across commits and across the time machine; what a caller
// does to its index stays with the caller.
func TestSnapshotsShareRecords(t *testing.T) {
	logOffAndOn(t, func(t *testing.T, e *Engine) {
		db := OpenEngine(e, ResourceLock)
		mustCommit(t, e, put("aws_vpc.a", 1))
		s1 := mustCommit(t, e, put("aws_vpc.b", 2))
		before := db.Snapshot()
		mustCommit(t, e, put("aws_vpc.b", 3))
		mustCommit(t, e, &Batch{Base: BaseUnchecked, SetOutputs: true,
			Outputs: map[string]eval.Value{"url": eval.String("https://x")}})
		after := db.Snapshot()
		past, err := db.SnapshotAt(s1)
		if err != nil {
			t.Fatal(err)
		}

		if before.Get("aws_vpc.a") != after.Get("aws_vpc.a") || past.Get("aws_vpc.a") != after.Get("aws_vpc.a") {
			t.Error("an untouched address changed its record across a commit to another address")
		}
		if before.Get("aws_vpc.b") == after.Get("aws_vpc.b") || past.Get("aws_vpc.b") != before.Get("aws_vpc.b") {
			t.Error("a rewritten address must get a new record, and the time machine the old one")
		}
		if before.Get("aws_vpc.b").Attr("n").AsInt() != 2 || after.Get("aws_vpc.b").Attr("n").AsInt() != 3 {
			t.Error("a commit wrote through a retained record")
		}

		// Index and outputs are the caller's.
		after.Set(rs("aws_vpc.a", 99))
		after.Remove("aws_vpc.b")
		after.Set(rs("aws_vpc.extra", 1))
		after.Outputs["url"] = eval.String("https://y")
		again := db.Snapshot()
		if again.Len() != 2 || db.Len() != 2 ||
			again.Get("aws_vpc.a").Attr("n").AsInt() != 1 || again.Get("aws_vpc.b").Attr("n").AsInt() != 3 {
			t.Errorf("Set/Remove on a snapshot reached the engine: %v", again.Addrs())
		}
		if again.Outputs["url"].AsString() != "https://x" {
			t.Error("a snapshot's outputs map is shared with the engine")
		}

		// One field of the head, without materializing it.
		outs := db.Outputs()
		outs["url"] = eval.String("https://z")
		if db.Outputs()["url"].AsString() != "https://x" || db.Serial() != again.Serial {
			t.Errorf("Outputs/Serial = %v, %d; want a private copy of the head's", db.Outputs(), db.Serial())
		}
		mustCommit(t, e, &Batch{Base: BaseUnchecked, Deletes: map[string]bool{"aws_vpc.a": true}})
		if db.Len() != 1 || db.Snapshot().Len() != 1 {
			t.Errorf("Len = %d after a delete, snapshot has %d", db.Len(), db.Snapshot().Len())
		}
	})
}

// TestSnapshotCostIsTheIndex: materializing a snapshot allocates for the
// address index, not per record or per attribute.
func TestSnapshotCostIsTheIndex(t *testing.T) {
	allocs := func(attrs int) float64 {
		seed := state.New()
		for i := 0; i < 1002; i++ {
			r := rs(fmt.Sprintf("aws_vpc.r%d", i), i)
			for a := 0; a < attrs; a++ {
				r.Attrs[fmt.Sprintf("attr%d", a)] = eval.Int(a)
			}
			seed.Set(r)
		}
		db := Open(seed, ResourceLock)
		return testing.AllocsPerRun(10, func() { db.Snapshot() })
	}
	thin, wide := allocs(1), allocs(32)
	if wide > thin {
		t.Errorf("Snapshot made %.0f allocations at 32 attributes per resource, %.0f at 1", wide, thin)
	}
	if thin > 100 {
		t.Errorf("Snapshot of 1002 resources made %.0f allocations: it is copying records", thin)
	}
}
