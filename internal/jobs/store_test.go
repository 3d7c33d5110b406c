package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudless/internal/wal"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreSubmitSurvivesReplay: a queued record appended before a "crash"
// (new store over the same directory) replays intact.
func TestStoreSubmitSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := StoredJob{
		ID: "j-000001", Tenant: "ws-a", Kind: "apply", Status: StatusQueued,
		IdemKey: "k1", Params: json.RawMessage(`{"kind":"apply"}`),
		Submitted: time.Now().UTC().Truncate(time.Millisecond),
	}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	s.Close() // simulate crash + restart: reopen cold

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs, err := s2.Replay("ws-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.ID != rec.ID || got.Status != StatusQueued || got.IdemKey != "k1" ||
		string(got.Params) != `{"kind":"apply"}` || !got.Submitted.Equal(rec.Submitted) {
		t.Fatalf("replayed record mismatch: %+v", got)
	}
}

// TestStoreLastRecordWins: transitions are full snapshots; replay folds to
// the latest one per job.
func TestStoreLastRecordWins(t *testing.T) {
	s := testStore(t)
	base := StoredJob{ID: "j-000001", Tenant: "t", Kind: "plan", Status: StatusQueued}
	for _, st := range []Status{StatusQueued, StatusRunning, StatusSucceeded} {
		base.Status = st
		if err := s.Append(base); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := s.Replay("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Status != StatusSucceeded {
		t.Fatalf("fold = %+v, want one succeeded job", jobs)
	}
}

// TestStoreTornTailTruncated: a partial final frame (crash mid-append) is
// dropped on reopen; the intact prefix survives and new appends land after
// the durable prefix.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(StoredJob{ID: "j-000001", Tenant: "t", Status: StatusQueued}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail: append a frame, then chop bytes off the end.
	path := filepath.Join(dir, "t", storeFile)
	torn := wal.Encode([]byte(`{"id":"j-000002","tenant":"t","status":"queued"}`))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs, err := s2.Replay("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-000001" {
		t.Fatalf("after torn tail replay = %+v, want only j-000001", jobs)
	}
	// The reopened journal must be appendable past the truncation.
	if err := s2.Append(StoredJob{ID: "j-000003", Tenant: "t", Status: StatusQueued}); err != nil {
		t.Fatal(err)
	}
	jobs, _ = s2.Replay("t")
	if len(jobs) != 2 {
		t.Fatalf("after post-truncate append replay = %+v, want 2 jobs", jobs)
	}
}

// TestStoreCompaction: a long history of terminal jobs is bounded — the
// journal file shrinks once dead frames dominate, and replay still returns
// only the retained window.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{MaxFinishedPerTenant: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 500; i++ {
		id := jobID(i)
		for _, st := range []Status{StatusQueued, StatusRunning, StatusSucceeded} {
			if err := s.Append(StoredJob{ID: id, Tenant: "t", Status: st}); err != nil {
				t.Fatal(err)
			}
		}
	}
	jobs, err := s.Replay("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16 {
		t.Fatalf("retained %d jobs, want 16", len(jobs))
	}
	if jobs[len(jobs)-1].ID != jobID(500) || jobs[0].ID != jobID(485) {
		t.Fatalf("retained window [%s..%s], want [%s..%s]",
			jobs[0].ID, jobs[len(jobs)-1].ID, jobID(485), jobID(500))
	}
	// 500 jobs x 3 records each would be ~1500 frames; compaction must keep
	// the file within the live window plus slack.
	fi, err := os.Stat(filepath.Join(dir, "t", storeFile))
	if err != nil {
		t.Fatal(err)
	}
	maxFrames := 2*16 + 64 + 1
	maxBytes := int64(maxFrames) * 256 // generous per-record ceiling
	if fi.Size() > maxBytes {
		t.Fatalf("journal is %d bytes after compaction, want <= %d", fi.Size(), maxBytes)
	}
}

func jobID(n int) string { return fmt.Sprintf("j-%06d", n) }

// TestQueueDurableLifecycle: a queue wired to a store journals submit,
// start, and finish; a second queue restored from the replay serves the
// original job ID with the original result.
func TestQueueDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := New(Options{Workers: 1, FixedAdmission: true, Store: st})
	j, err := q.Submit(Request{
		Tenant: "ws", Kind: "plan", IdemKey: "idem-1",
		Fn: func(ctx context.Context) (any, error) { return map[string]any{"adds": 3.0}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Restart: fresh store + queue over the same directory.
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q2 := New(Options{Workers: 1, FixedAdmission: true, Store: st2})
	defer q2.Shutdown(context.Background())
	replayed, err := st2.Replay("ws")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range replayed {
		if _, err := q2.Restore(rec, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := q2.Get(j.ID())
	if !ok {
		t.Fatalf("restored queue lost job %s", j.ID())
	}
	v := got.Snapshot()
	if v.Status != StatusSucceeded {
		t.Fatalf("restored job status %s, want succeeded", v.Status)
	}
	res, _ := got.Result()
	m, _ := res.(map[string]any)
	if m["adds"] != 3.0 {
		t.Fatalf("restored result = %#v, want map with adds=3", res)
	}
	// Retrying the original submit must dedup to the restored job, not run.
	j2, err := q2.Submit(Request{
		Tenant: "ws", Kind: "plan", IdemKey: "idem-1",
		Fn: func(ctx context.Context) (any, error) { return nil, errors.New("must not run") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() != j.ID() {
		t.Fatalf("idem resubmit created %s, want original %s", j2.ID(), j.ID())
	}
	// And new jobs must not collide with replayed IDs.
	j3, err := q2.Submit(Request{Tenant: "ws", Kind: "plan",
		Fn: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() <= j.ID() {
		t.Fatalf("post-restore job ID %s does not advance past %s", j3.ID(), j.ID())
	}
}

// TestQueueRestoreReenqueues: a job whose last record is non-terminal is
// re-enqueued with the supplied fn and runs to completion under its
// original ID.
func TestQueueRestoreReenqueues(t *testing.T) {
	st := testStore(t)
	q := New(Options{Workers: 1, FixedAdmission: true, Store: st})
	defer q.Shutdown(context.Background())
	ran := make(chan struct{})
	j, err := q.Restore(StoredJob{
		ID: "j-000042", Tenant: "ws", Kind: "apply", Status: StatusRunning,
		Submitted: time.Now(),
	}, func(ctx context.Context) (any, error) {
		close(ran)
		return "resumed", nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("restored job never ran")
	}
	v, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusSucceeded || v.ID != "j-000042" {
		t.Fatalf("restored run = %+v, want j-000042 succeeded", v)
	}
	res, _ := j.Result()
	if res != "resumed" {
		t.Fatalf("result = %v, want resumed", res)
	}
}

// TestQueueRestoreNilFnFails: a non-terminal job whose workspace is gone
// resolves failed with the caller's reason instead of staying queued.
func TestQueueRestoreNilFnFails(t *testing.T) {
	st := testStore(t)
	q := New(Options{Workers: 1, FixedAdmission: true, Store: st})
	defer q.Shutdown(context.Background())
	j, err := q.Restore(StoredJob{
		ID: "j-000007", Tenant: "gone", Kind: "apply", Status: StatusQueued,
	}, nil, "workspace deleted before restart")
	if err != nil {
		t.Fatal(err)
	}
	v := j.Snapshot()
	if v.Status != StatusFailed || v.Err != "workspace deleted before restart" {
		t.Fatalf("restore with nil fn = %+v, want failed with reason", v)
	}
}

// TestShutdownCheckpointsQueuedJobs: the graceful-shutdown path journals a
// clean queued record for admitted-but-unstarted jobs (so restart
// re-enqueues them) instead of a canceled terminal record.
func TestShutdownCheckpointsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero workers: submitted jobs can never dispatch.
	q := New(Options{Workers: 1, FixedAdmission: true, Store: st})
	block := make(chan struct{})
	if _, err := q.Submit(Request{Tenant: "ws", Kind: "apply",
		Fn: func(ctx context.Context) (any, error) { <-block; return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to claim the blocker so the next submit stays
	// queued in the scheduler.
	for i := 0; ; i++ {
		if q.QueuedLen() == 0 {
			break
		}
		if i > 1000 {
			t.Fatal("blocker never claimed")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := q.Submit(Request{Tenant: "ws", Kind: "plan",
		Fn: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- q.Shutdown(ctx) }()
	// Shutdown checkpoints the queued job before it waits for the running
	// one. Only then may the blocker finish: released earlier, the worker
	// can claim the queued job ahead of the shutdown.
	if _, err := queued.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	close(block)
	if err := <-shutdown; err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replayed, err := st2.Replay("ws")
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]StoredJob{}
	for _, r := range replayed {
		byID[r.ID] = r
	}
	if got := byID[queued.ID()]; got.Status != StatusQueued {
		t.Fatalf("drained-queued job replays as %s, want queued checkpoint", got.Status)
	}
}

// TestDropTenant: deletion wipes history and journal so a reused name
// starts clean.
func TestDropTenant(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q := New(Options{Workers: 1, FixedAdmission: true, Store: st})
	defer q.Shutdown(context.Background())
	j, err := q.Submit(Request{Tenant: "ws", Kind: "plan", IdemKey: "k",
		Fn: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q.ActiveForTenant("ws") != 0 {
		t.Fatal("job should be terminal")
	}
	if err := q.DropTenant("ws"); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Get(j.ID()); ok {
		t.Fatal("dropped tenant's job still resolvable")
	}
	if _, err := os.Stat(filepath.Join(dir, "ws", storeFile)); !os.IsNotExist(err) {
		t.Fatalf("journal still present after drop: %v", err)
	}
	if len(q.List("ws")) != 0 {
		t.Fatal("dropped tenant still has listed jobs")
	}
}

// TestStoreShortWriteHidesNothing: a short write fails its Append and leaves
// no partial frame in the journal, so a job acknowledged after it is replayed
// by the next daemon. (The journal used to keep the half frame; replay stopped
// there and lost every record behind it.)
func TestStoreShortWriteHidesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(StoredJob{ID: jobID(1), Tenant: "t", Status: StatusQueued}); err != nil {
		t.Fatal(err)
	}
	sw := wal.WrapFaulty(s.tenants["t"].log)
	sw.Set(wal.Faults{ShortWrite: true})
	if err := s.Append(StoredJob{ID: jobID(2), Tenant: "t", Status: StatusQueued}); err == nil {
		t.Fatal("Append acknowledged a short write")
	}
	sw.Set(wal.Faults{})
	if err := s.Append(StoredJob{ID: jobID(3), Tenant: "t", Status: StatusQueued}); err != nil {
		t.Fatalf("append after the failed one: %v", err)
	}
	s.Close()

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs, err := s2.Replay("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != jobID(1) || jobs[1].ID != jobID(3) {
		t.Fatalf("replay after a short write = %+v, want jobs 1 and 3", jobs)
	}
}

// fillToCompaction appends transitions of one job until the next append to
// the tenant's journal is the one that compacts it.
func fillToCompaction(t *testing.T, s *Store, tenant string) {
	t.Helper()
	for i := 0; i < 2+64; i++ {
		if err := s.Append(StoredJob{ID: jobID(900000), Tenant: tenant, Status: StatusRunning}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendSurvivesFailedCompaction: the record is durable before the
// journal is compacted, so a rewrite that loses the file (here: the reopen
// after the rename fails) must not fail the append that triggered it. The
// failure shows up where it is true — the next append, which has no file to
// go to, and Close. (Append used to return the compaction's error.)
func TestAppendSurvivesFailedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillToCompaction(t, s, "t")
	path := filepath.Join(dir, "t", storeFile)
	wal.WrapFaulty(s.tenants["t"].log).Trace = func(op string, _ []byte) {
		if op == "close" {
			os.Remove(path)
			os.Mkdir(path, 0o755)
		}
	}
	if err := s.Append(StoredJob{ID: jobID(900000), Tenant: "t", Status: StatusSucceeded}); err != nil {
		t.Fatalf("append whose record was durable before the compaction failed: %v", err)
	}
	if s.tenants["t"].compactErr == nil {
		t.Fatal("the compaction did not fail: the test proves nothing")
	}
	if err := s.Append(StoredJob{ID: jobID(2), Tenant: "t", Status: StatusQueued}); err == nil {
		t.Error("append acknowledged into a journal the rewrite lost")
	}
	if err := s.Close(); err == nil {
		t.Error("Close hid a compaction that failed and was never retried successfully")
	}
}

// TestSubmitSurvivesFailedCompaction: while compaction keeps failing (its
// temp file cannot be written) every submit whose queued record reached the
// journal is accepted under an ID of its own, and a restart replays each of
// them; once the obstacle is gone the next append compacts and Close is
// clean. (Submit used to reject such a job and hand its ID to the next one,
// though a restart would run the rejected job.)
func TestSubmitSurvivesFailedCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillToCompaction(t, st, "ws")
	blocker := filepath.Join(dir, "ws", storeFile+".tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	q := New(Options{Workers: 1, FixedAdmission: true, Store: st})
	for i := 1; i <= 5; i++ {
		j, err := q.Submit(Request{Tenant: "ws", Kind: "plan",
			Fn: func(context.Context) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatalf("submit %d while compaction fails: %v", i, err)
		}
		if j.ID() != jobID(i) {
			t.Fatalf("submit %d got ID %s", i, j.ID())
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st.tenants["ws"].compactErr == nil {
		t.Fatal("no compaction failed: the test proves nothing")
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Request{Tenant: "ws", Kind: "plan",
		Fn: func(context.Context) (any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Seven live jobs, and the two transitions the last one made since.
	if st.tenants["ws"].frames > 7+2 {
		t.Errorf("journal holds %d frames: the compaction was not retried", st.tenants["ws"].frames)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close after a compaction that was made good: %v", err)
	}

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replayed, err := st2.Replay("ws")
	if err != nil || len(replayed) != 7 {
		t.Fatalf("replay = %d jobs, %v; want the filler and all six submitted", len(replayed), err)
	}
}

// journalFixture is the append sequence that produced
// testdata/parent-format/jobs.journal.
func journalFixture() []StoredJob {
	ts := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)
	j1 := StoredJob{ID: "j-000001", Tenant: "ws", Kind: "apply", Status: StatusQueued, IdemKey: "idem-1",
		Params: json.RawMessage(`{"kind":"apply","workspace":"ws"}`), Cost: 2.5, Submitted: ts}
	j1run, j1done := j1, j1
	j1run.Status, j1run.Started = StatusRunning, ts.Add(time.Second)
	j1done.Status, j1done.Started, j1done.Finished = StatusSucceeded, j1run.Started, ts.Add(3*time.Second)
	j1done.Result = json.RawMessage(`{"adds":3,"serial":7}`)
	j2 := StoredJob{ID: "j-000002", Tenant: "ws", Kind: "plan", Status: StatusQueued, Submitted: ts.Add(4 * time.Second)}
	j2run := j2
	j2run.Status, j2run.Started = StatusRunning, ts.Add(5*time.Second)
	rc := StoredJob{ID: reconcilerID, Tenant: "ws", Kind: "reconciler", Status: StatusRunning,
		Params: json.RawMessage(`{"enabled":true,"watermark":41}`)}
	j3 := StoredJob{ID: "j-000003", Tenant: "ws", Kind: "destroy", Status: StatusFailed, Err: "cloud said no",
		Submitted: ts.Add(6 * time.Second), Started: ts.Add(7 * time.Second), Finished: ts.Add(8 * time.Second)}
	return []StoredJob{j1, j1run, j2, j1done, j2run, rc, j3}
}

// TestJournalFormatUnchanged holds jobs.journal to the bytes the store wrote
// before it moved onto wal.Log: testdata/parent-format/jobs.journal is
// journalFixture appended through that commit's Store. It must replay to the
// same fold and survive an append untouched, and the same appends through
// this store must produce the same bytes.
func TestJournalFormatUnchanged(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-format", storeFile))
	if err != nil {
		t.Fatal(err)
	}
	old := t.TempDir()
	if err := os.MkdirAll(filepath.Join(old, "ws"), 0o755); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(old, "ws", storeFile)
	if err := os.WriteFile(oldPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(old, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs, err := s.Replay("ws")
	if err != nil {
		t.Fatal(err)
	}
	var fold []string
	for _, j := range jobs {
		fold = append(fold, j.ID+"="+string(j.Status))
	}
	if got := fmt.Sprint(fold); got != "[j-000001=succeeded j-000002=running j-000003=failed]" {
		t.Errorf("fixture folds to %s", got)
	}
	if string(jobs[0].Result) != `{"adds":3,"serial":7}` || jobs[0].IdemKey != "idem-1" || jobs[2].Err != "cloud said no" {
		t.Errorf("fixture contents = %+v", jobs)
	}
	if cp, err := s.LoadReconciler("ws"); err != nil || string(cp) != `{"enabled":true,"watermark":41}` {
		t.Errorf("fixture reconciler checkpoint = %s, %v", cp, err)
	}
	if err := s.Append(StoredJob{ID: "j-000004", Tenant: "ws", Status: StatusQueued}); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(oldPath); !bytes.HasPrefix(raw, fixture) || len(raw) == len(fixture) {
		t.Errorf("an append left %d bytes that do not extend the %d of the fixture", len(raw), len(fixture))
	}

	fresh := t.TempDir()
	w, err := OpenStore(fresh, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range journalFixture() {
		if err := w.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if raw, _ := os.ReadFile(filepath.Join(fresh, "ws", storeFile)); !bytes.Equal(raw, fixture) {
		t.Errorf("jobs.journal differs from the parent format:\n got %q\nwant %q", raw, fixture)
	}
}

// FuzzStoreReplay feeds arbitrary bytes to a tenant's journal. Invariants:
// opening never panics or fails, replay is stable across a reopen, and a job
// appended after the open is replayed with whatever survived.
func FuzzStoreReplay(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-format", storeFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)-7])
	f.Add(wal.Encode([]byte(`{"id":"","status":"queued"}`)))
	f.Add(wal.Encode([]byte(`not json`)))
	dir := f.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "t"), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "t", storeFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() []StoredJob {
			s, err := OpenStore(dir, StoreOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			jobs, err := s.Replay("t")
			if err != nil {
				t.Fatal(err)
			}
			return jobs
		}
		first := replay()
		if second := replay(); fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("replay changed across a reopen:\n%v\n%v", first, second)
		}
		s, err := OpenStore(dir, StoreOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(StoredJob{ID: "zz-appended", Tenant: "t", Status: StatusQueued}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		for _, j := range replay() {
			if j.ID == "zz-appended" {
				return
			}
		}
		t.Fatal("job appended behind fuzzed bytes was not replayed")
	})
}
