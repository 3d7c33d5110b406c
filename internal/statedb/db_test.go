package statedb

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cloudless/internal/eval"
	"cloudless/internal/state"
)

func rs(addr string, n int) *state.ResourceState {
	return &state.ResourceState{
		Addr: addr, Type: "aws_vpc", ID: "id-" + addr,
		Attrs: map[string]eval.Value{"n": eval.Int(n)},
	}
}

func TestTxnBasicCommit(t *testing.T) {
	db := Open(nil, ResourceLock)
	txn := db.Begin("create")
	if err := txn.Lock(context.Background(), "aws_vpc.a"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(rs("aws_vpc.a", 1)); err != nil {
		t.Fatal(err)
	}
	// Not visible before commit.
	if db.Snapshot().Get("aws_vpc.a") != nil {
		t.Error("uncommitted write visible")
	}
	serial, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if serial <= 0 {
		t.Errorf("serial = %d", serial)
	}
	if db.Snapshot().Get("aws_vpc.a") == nil {
		t.Error("committed write not visible")
	}
	if before, err := db.SnapshotAt(serial - 1); err != nil || before.Get("aws_vpc.a") != nil {
		t.Errorf("time machine before the commit = %+v, %v", before, err)
	}
}

func TestTxnAbortDiscards(t *testing.T) {
	db := Open(nil, ResourceLock)
	txn := db.Begin("doomed")
	_ = txn.Lock(context.Background(), "aws_vpc.a")
	_ = txn.Put(rs("aws_vpc.a", 1))
	txn.Abort()
	if db.Snapshot().Get("aws_vpc.a") != nil {
		t.Error("aborted write visible")
	}
	if db.Locks().Holder("aws_vpc.a") != 0 {
		t.Error("abort did not release locks")
	}
	if db.AbortCount() != 1 {
		t.Errorf("aborts = %d", db.AbortCount())
	}
}

func TestAccessWithoutLockRejected(t *testing.T) {
	db := Open(nil, ResourceLock)
	txn := db.Begin("rogue")
	if err := txn.Put(rs("aws_vpc.a", 1)); err == nil {
		t.Error("write without lock accepted")
	}
	if _, err := txn.Get("aws_vpc.a"); err == nil {
		t.Error("read without lock accepted")
	}
	txn.Abort()
}

func TestTxnReadYourWrites(t *testing.T) {
	db := Open(nil, ResourceLock)
	txn := db.Begin("t")
	_ = txn.Lock(context.Background(), "aws_vpc.a")
	_ = txn.Put(rs("aws_vpc.a", 7))
	got, err := txn.Get("aws_vpc.a")
	if err != nil || got == nil || got.Attr("n").AsInt() != 7 {
		t.Fatalf("read-your-writes: %+v, %v", got, err)
	}
	_ = txn.Delete("aws_vpc.a")
	got, _ = txn.Get("aws_vpc.a")
	if got != nil {
		t.Error("delete not visible inside txn")
	}
	txn.Abort()
}

func TestPerResourceLocksAllowDisjointParallelism(t *testing.T) {
	db := Open(nil, ResourceLock)
	t1 := db.Begin("team1")
	t2 := db.Begin("team2")
	if err := t1.Lock(context.Background(), "aws_vpc.a"); err != nil {
		t.Fatal(err)
	}
	// Disjoint address: must not block.
	done := make(chan error, 1)
	go func() { done <- t2.Lock(context.Background(), "aws_vpc.b") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("disjoint lock blocked under per-resource mode")
	}
	t1.Abort()
	t2.Abort()
}

func TestGlobalLockSerializesDisjointUpdates(t *testing.T) {
	db := Open(nil, GlobalLock)
	t1 := db.Begin("team1")
	t2 := db.Begin("team2")
	if err := t1.Lock(context.Background(), "aws_vpc.a"); err != nil {
		t.Fatal(err)
	}
	if t2.TryLock("aws_vpc.b") {
		t.Fatal("global lock allowed a second holder on a disjoint address")
	}
	t1.Abort()
	if !t2.TryLock("aws_vpc.b") {
		t.Fatal("lock not released after abort")
	}
	t2.Abort()
}

func TestConflictingLockBlocksThenProceeds(t *testing.T) {
	db := Open(nil, ResourceLock)
	t1 := db.Begin("t1")
	_ = t1.Lock(context.Background(), "aws_vpc.x")
	t2 := db.Begin("t2")
	acquired := make(chan struct{})
	go func() {
		_ = t2.Lock(context.Background(), "aws_vpc.x")
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("conflicting lock acquired while held")
	case <-time.After(50 * time.Millisecond):
	}
	t1.Abort()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woken")
	}
	t2.Abort()
	stats := db.Locks().Stats()
	if stats.Contended == 0 {
		t.Error("contention not recorded")
	}
}

func TestLockContextCancellation(t *testing.T) {
	db := Open(nil, ResourceLock)
	t1 := db.Begin("t1")
	_ = t1.Lock(context.Background(), "aws_vpc.x")
	t2 := db.Begin("t2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := t2.Lock(ctx, "aws_vpc.x"); err == nil {
		t.Fatal("lock acquired despite timeout")
	}
	t1.Abort()
	// The canceled waiter must not corrupt the queue.
	t3 := db.Begin("t3")
	if err := t3.Lock(context.Background(), "aws_vpc.x"); err != nil {
		t.Fatal(err)
	}
	t3.Abort()
	t2.Abort()
}

func TestOrderedAcquisitionNoDeadlock(t *testing.T) {
	// Two transactions locking the same pair in opposite argument order
	// must not deadlock thanks to sorted acquisition.
	db := Open(nil, ResourceLock)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			txn := db.Begin("fwd")
			if err := txn.Lock(context.Background(), "aws_vpc.a", "aws_vpc.b"); err != nil {
				t.Error(err)
			}
			txn.Abort()
		}()
		go func() {
			defer wg.Done()
			txn := db.Begin("rev")
			if err := txn.Lock(context.Background(), "aws_vpc.b", "aws_vpc.a"); err != nil {
				t.Error(err)
			}
			txn.Abort()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: ordered acquisition failed")
	}
}

// TestNoLostUpdates is the E5 isolation property: N concurrent transactions
// each increment a counter attribute under its lock; the final value must be
// exactly N under both lock modes.
func TestNoLostUpdates(t *testing.T) {
	for _, mode := range []LockMode{GlobalLock, ResourceLock} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			initial := state.New()
			initial.Set(rs("aws_vpc.ctr", 0))
			db := Open(initial, mode)
			const n = 64
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					txn := db.Begin("inc")
					if err := txn.Lock(context.Background(), "aws_vpc.ctr"); err != nil {
						t.Error(err)
						return
					}
					cur, err := txn.Get("aws_vpc.ctr")
					if err != nil {
						t.Error(err)
						txn.Abort()
						return
					}
					cur.Attrs["n"] = eval.Int(cur.Attr("n").AsInt() + 1)
					if err := txn.Put(cur); err != nil {
						t.Error(err)
						txn.Abort()
						return
					}
					if _, err := txn.Commit(); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			final := db.Snapshot().Get("aws_vpc.ctr").Attr("n").AsInt()
			if final != n {
				t.Errorf("lost updates: final = %d, want %d", final, n)
			}
		})
	}
}

// Property: txn writes never leak before commit, for arbitrary interleaving
// of key sets.
func TestIsolationQuick(t *testing.T) {
	prop := func(keysRaw []uint8) bool {
		if len(keysRaw) == 0 {
			return true
		}
		if len(keysRaw) > 12 {
			keysRaw = keysRaw[:12]
		}
		db := Open(nil, ResourceLock)
		txn := db.Begin("q")
		for _, k := range keysRaw {
			addr := fmt.Sprintf("aws_vpc.k%d", k%8)
			if err := txn.Lock(context.Background(), addr); err != nil {
				return false
			}
			if err := txn.Put(rs(addr, int(k))); err != nil {
				return false
			}
		}
		if db.Snapshot().Len() != 0 {
			return false // leaked before commit
		}
		if _, err := txn.Commit(); err != nil {
			return false
		}
		snap := db.Snapshot()
		for _, k := range keysRaw {
			if snap.Get(fmt.Sprintf("aws_vpc.k%d", k%8)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDoubleFinishIsNoop pins the idempotent-finish contract: a second
// Commit is a no-op returning the original serial, Abort after Commit (and
// a second Abort) change nothing, and none of them double-release locks or
// double-count outcomes.
func TestDoubleFinishIsNoop(t *testing.T) {
	db := Open(nil, ResourceLock)
	txn := db.Begin("x")
	_ = txn.Lock(context.Background(), "aws_vpc.a")
	_ = txn.Put(rs("aws_vpc.a", 1))
	serial, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// A bystander takes the released lock; the finished txn's repeated
	// Commit/Abort must not yank it away (the double-unlock hazard).
	other := db.Begin("bystander")
	if !other.TryLock("aws_vpc.a") {
		t.Fatal("lock not released by commit")
	}
	again, err := txn.Commit()
	if err != nil || again != serial {
		t.Errorf("repeated Commit = (%d, %v), want (%d, nil)", again, err, serial)
	}
	txn.Abort()
	txn.Abort()
	if db.Locks().Holder("aws_vpc.a") != other.ID() {
		t.Error("double finish released a lock the txn no longer owned")
	}
	other.Abort()
	if got := db.CommitCount(); got != 1 {
		t.Errorf("commits = %d, want 1", got)
	}
	if got := db.AbortCount(); got != 1 {
		t.Errorf("aborts = %d, want 1 (only the bystander)", got)
	}
	if err := txn.Lock(context.Background(), "aws_vpc.b"); err == nil {
		t.Error("lock after commit accepted")
	}
	if db.Serial() != serial {
		t.Errorf("serial moved to %d after no-op finishes", db.Serial())
	}
}

// TestAbortedTxnCommitRejected: Commit after Abort must fail rather than
// silently publish discarded writes.
func TestAbortedTxnCommitRejected(t *testing.T) {
	db := Open(nil, ResourceLock)
	txn := db.Begin("x")
	_ = txn.Lock(context.Background(), "aws_vpc.a")
	_ = txn.Put(rs("aws_vpc.a", 1))
	txn.Abort()
	if _, err := txn.Commit(); err == nil {
		t.Error("commit after abort accepted")
	}
	if db.Snapshot().Get("aws_vpc.a") != nil {
		t.Error("aborted write published")
	}
}

// TestConcurrentDoubleFinishRace hammers Commit/Abort from racing
// goroutines: exactly one outcome must win, with no panic and no lock-state
// corruption (run under -race).
func TestConcurrentDoubleFinishRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		db := Open(nil, ResourceLock)
		txn := db.Begin("race")
		_ = txn.Lock(context.Background(), "aws_vpc.a")
		_ = txn.Put(rs("aws_vpc.a", 1))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _, _ = txn.Commit() }()
		go func() { defer wg.Done(); txn.Abort() }()
		wg.Wait()
		if db.Locks().Holder("aws_vpc.a") != 0 {
			t.Fatal("lock leaked by racing finish")
		}
		if db.CommitCount()+db.AbortCount() != 1 {
			t.Fatalf("outcomes = %d commits + %d aborts, want exactly 1 total",
				db.CommitCount(), db.AbortCount())
		}
	}
}
