package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// stallGroup opens a log whose first fsync is stalled under one appender
// while n-1 more write their frames behind it. It returns once all n frames
// are in the file: release lets the fsync go, errs receives each Append's
// result.
func stallGroup(t *testing.T, path string, n int) (l *Log, ff *Faulty, release func(), errs chan error) {
	t.Helper()
	l, _ = openLog(t, path)
	ff = WrapFaulty(l)
	var writes atomic.Int32
	written := make(chan struct{})
	ff.Trace = func(op string, _ []byte) {
		if op == "write" && writes.Add(1) == int32(n) {
			close(written)
		}
	}
	entered, release := ff.BlockSync()
	errs = make(chan error, n)
	appendOne := func(i int) { errs <- l.Append([]byte(fmt.Sprintf("g%d", i)), true) }
	go appendOne(0)
	<-entered
	for i := 1; i < n; i++ {
		go appendOne(i)
	}
	<-written
	return l, ff, release, errs
}

// TestGroupCommitSharesFsyncs: appenders that arrive while an fsync runs
// share the next one — the stalled fsync started before their frames were
// written, so it acknowledges only the first — and an appender with no
// company pays exactly one fsync per record.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const n = 8
	path := filepath.Join(t.TempDir(), "x.log")
	l, ff, release, errs := stallGroup(t, path, n)
	release()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("grouped append: %v", err)
		}
	}
	if got := ff.Syncs(); got != 2 {
		t.Errorf("%d appends took %d fsyncs, want 2: one under the first, one shared by the rest", n, got)
	}
	if l.Size() != fileSize(t, path) {
		t.Errorf("size = %d tracked, %d on disk", l.Size(), fileSize(t, path))
	}

	before := ff.Syncs()
	mustAppend(t, l, "s1", "s2", "s3", "s4", "s5")
	if got := ff.Syncs() - before; got != 5 {
		t.Errorf("5 appends by one appender took %d fsyncs, want 5", got)
	}
	if err := l.Append([]byte("lazy"), false); err != nil || ff.Syncs()-before != 5 {
		t.Errorf("append without sync = %v after %d fsyncs, want none", err, ff.Syncs()-before-5)
	}
	l.Close(true)
	if _, got := openLog(t, path); len(got) != n+6 {
		t.Errorf("reopen replayed %d records, want %d", len(got), n+6)
	}
}

// TestFailedSyncFailsTheGroup: when the fsync fails, so does every append
// whose frame it left unacknowledged — those written while it ran included —
// and all of them are cut out, so none replays and the next record lands
// behind the last acknowledged one.
func TestFailedSyncFailsTheGroup(t *testing.T) {
	const n = 8
	path := filepath.Join(t.TempDir(), "x.log")
	l, ff, release, errs := stallGroup(t, path, n)
	ff.Set(Faults{FailSync: true})
	release()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrInjected) {
			t.Errorf("append in a group whose fsync failed = %v", err)
		}
	}
	if got := ff.Syncs(); got != 1 {
		t.Errorf("%d fsyncs, want the failed one alone: its followers must not retry", got)
	}
	if l.Size() != 0 || fileSize(t, path) != 0 {
		t.Errorf("size = %d tracked, %d on disk after the group was cut out", l.Size(), fileSize(t, path))
	}
	ff.Set(Faults{})
	mustAppend(t, l, "after")
	l.Close(false)
	if _, got := openLog(t, path); fmt.Sprint(got) != "[after]" {
		t.Errorf("reopen replayed %v, want [after]", got)
	}
}

// TestAckedFramesSurviveCuts: with appenders racing and every third fsync
// failing, the records that replay are exactly the ones acknowledged — a cut
// never takes an acknowledged frame and never leaves a failed one.
func TestAckedFramesSurviveCuts(t *testing.T) {
	const writers, each = 8, 40
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := openLog(t, path)
	ff := WrapFaulty(l)
	var mu sync.Mutex
	syncs := 0
	ff.Trace = func(op string, _ []byte) {
		if op == "sync" {
			mu.Lock()
			syncs++
			ff.Set(Faults{FailSync: syncs%3 == 0})
			mu.Unlock()
		}
	}
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := fmt.Sprintf("w%d-%d", w, i)
				if err := l.Append([]byte(p), true); err == nil {
					mu.Lock()
					acked = append(acked, p)
					mu.Unlock()
				} else if !errors.Is(err, ErrInjected) {
					t.Errorf("append %s: %v", p, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(acked) == 0 || len(acked) == writers*each {
		t.Fatalf("%d of %d appends acknowledged: the test needs both outcomes", len(acked), writers*each)
	}
	l.Close(false)
	_, got := openLog(t, path)
	sort.Strings(acked)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Errorf("replayed %d records, acknowledged %d:\n got %v\nwant %v", len(got), len(acked), got, acked)
	}
}

// TestAppendRacesExclusiveOps: Rewrite, Wrap and Close wait for the
// appends in flight instead of pulling the file from under them. Run with
// -race; the assertions are that nothing hangs and that Close ends it.
func TestAppendRacesExclusiveOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := openLog(t, path)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)), i%4 != 0); err != nil {
					if !errors.Is(err, errClosed) {
						t.Errorf("append: %v", err)
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if err := l.Rewrite([][]byte{[]byte("kept")}); err != nil {
			t.Fatal(err)
		}
		l.Wrap(func(f File) File { return f })
		_ = l.Size()
	}
	if err := l.Close(true); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var got []string
	durable, total, err := Replay(path, collect(&got))
	if err != nil || durable != total || len(got) == 0 || got[0] != "kept" {
		t.Errorf("after the race the log replays %d of %d bytes, %d records, %v", durable, total, len(got), err)
	}
}

// BenchmarkLogAppendSync measures durable appends with 1, 4 and 16 concurrent
// appenders; one iteration is 32 appends by each. fsyncs/append is 1 for a
// single appender and falls as appenders share.
func BenchmarkLogAppendSync(b *testing.B) {
	const each = 32
	payload := make([]byte, 256)
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, err := Open(filepath.Join(b.TempDir(), "x.log"), func([]byte) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close(false)
			ff := WrapFaulty(l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < each; k++ {
							if err := l.Append(payload, true); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(ff.Syncs())/float64(b.N*writers*each), "fsyncs/append")
		})
	}
}
