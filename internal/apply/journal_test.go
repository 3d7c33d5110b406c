package apply

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/state"
	"cloudless/internal/wal"
)

func tempJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless", BaseSerial: 3})
	if err != nil {
		t.Fatalf("new journal: %s", err)
	}
	return j, path
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := tempJournal(t)
	if err := j.Begin(OpRecord{Addr: "aws_vpc.main", Action: "create", Type: "aws_vpc",
		Region: "us-east-1", IdemKey: j.IdemKey("aws_vpc.main"),
		Attrs: AttrsOut(map[string]eval.Value{"name": eval.String("main")})}); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(OpRecord{Addr: "aws_vpc.main", Action: "create", Type: "aws_vpc",
		Region: "us-east-1", ID: "vpc-00000001"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(OpRecord{Addr: "aws_subnet.s[0]", Action: "create", Type: "aws_subnet",
		Region: "us-east-1", IdemKey: j.IdemKey("aws_subnet.s[0]")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Fail("aws_vpc.old", "delete", errors.New("Conflict: in use")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	js, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if js == nil {
		t.Fatal("journal read back nil")
	}
	if js.Meta.Kind != "apply" || js.Meta.BaseSerial != 3 || js.Meta.ID == "" {
		t.Errorf("meta = %+v", js.Meta)
	}
	if len(js.Ops) != 3 {
		t.Fatalf("%d ops, want 3", len(js.Ops))
	}
	vpc := js.Ops["aws_vpc.main"]
	if vpc == nil || vpc.Begin == nil || vpc.Done == nil || vpc.InDoubt() {
		t.Errorf("vpc status = %+v", vpc)
	}
	if got := AttrsIn(vpc.Begin.Attrs); !got["name"].Equal(eval.String("main")) {
		t.Errorf("begin attrs = %v", got)
	}
	if vpc.Begin.IdemKey != js.Meta.ID+"/aws_vpc.main" {
		t.Errorf("idem key = %q", vpc.Begin.IdemKey)
	}
	sub := js.Ops["aws_subnet.s[0]"]
	if sub == nil || !sub.InDoubt() {
		t.Errorf("subnet status = %+v", sub)
	}
	if got := js.InDoubt(); len(got) != 1 || got[0] != "aws_subnet.s[0]" {
		t.Errorf("in-doubt = %v", got)
	}
	if old := js.Ops["aws_vpc.old"]; old == nil || old.FailError == "" || old.InDoubt() {
		t.Errorf("failed op status = %+v", old)
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	j, path := tempJournal(t)
	if err := j.Begin(OpRecord{Addr: "aws_vpc.a", Action: "create", Type: "aws_vpc"}); err != nil {
		t.Fatal(err)
	}
	j.KillTorn() // half-written frame, then dead
	j.Close()

	js, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if js == nil {
		t.Fatal("journal read back nil")
	}
	if st := js.Ops["aws_vpc.a"]; st == nil || !st.InDoubt() {
		t.Errorf("status = %+v", st)
	}
	if _, ok := js.Ops["torn"]; ok {
		t.Error("torn frame surfaced in replay")
	}
}

func TestJournalKillStopsAppends(t *testing.T) {
	j, path := tempJournal(t)
	j.Kill()
	if err := j.Begin(OpRecord{Addr: "aws_vpc.a"}); !errors.Is(err, ErrJournalKilled) {
		t.Errorf("err = %v, want ErrJournalKilled", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("close after kill: %v", err)
	}
	if js, err := ReadJournal(path); err != nil || js == nil || len(js.Ops) != 0 {
		t.Errorf("journal after kill = %+v, %v; want the meta record alone", js, err)
	}
}

// TestJournalDiscardRemovesFile: Discard unlinks the journal without flushing
// it first (its outcome is already committed to the golden state); Close,
// which keeps the file for recovery, does flush the unsynced done records.
func TestJournalDiscardRemovesFile(t *testing.T) {
	kept, _ := tempJournal(t)
	sc := wal.WrapFaulty(kept.log)
	if err := kept.Done(OpRecord{Addr: "aws_vpc.a"}); err != nil || sc.Syncs() != 0 {
		t.Fatalf("Done = %v after %d fsyncs, want none", err, sc.Syncs())
	}
	if err := kept.Close(); err != nil || sc.Syncs() != 1 {
		t.Fatalf("Close = %v after %d fsyncs, want the one that flushes done records", err, sc.Syncs())
	}

	j, path := tempJournal(t)
	sc = wal.WrapFaulty(j.log)
	if err := j.Discard(); err != nil {
		t.Fatal(err)
	}
	if sc.Syncs() != 0 {
		t.Errorf("Discard fsynced the journal %d times before unlinking it", sc.Syncs())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal still on disk: %v", err)
	}
	if js, err := ReadJournal(path); err != nil || js != nil {
		t.Errorf("read discarded journal: %v, %v", js, err)
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	js, err := ReadJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || js != nil {
		t.Errorf("got %v, %v; want nil, nil", js, err)
	}
}

// writeJournalFixture drives the journal the way the apply that produced
// testdata/parent-format/run.journal did: it died with one create in doubt.
// That apply also recorded its plan's op list in an intents frame after the
// meta record; journals no longer carry one.
func writeJournalFixture(t *testing.T, path string) {
	t.Helper()
	j, err := NewJournal(path, Meta{ID: "apply-fixture", Kind: "apply", BaseSerial: 7, Principal: "alice",
		CreatedAt: time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		j.Begin(OpRecord{Addr: "aws_vpc.main", Type: "aws_vpc", Region: "us-east-1", IdemKey: j.IdemKey("aws_vpc.main"), Attrs: map[string]any{"cidr": "10.0.0.0/16", "name": "main"}}),
		j.Done(OpRecord{Addr: "aws_vpc.main", Action: "create", Type: "aws_vpc", Region: "us-east-1", ID: "vpc-0001", Attrs: map[string]any{"cidr": "10.0.0.0/16", "name": "main"}}),
		j.Begin(OpRecord{Addr: "aws_instance.old", Action: "delete", Type: "aws_instance", Region: "us-east-1", ID: "i-0001"}),
		j.Fail("aws_instance.old", "delete", errors.New("dependency violation")),
		j.Begin(OpRecord{Addr: "aws_subnet.a", Action: "create", Type: "aws_subnet", Region: "us-east-1", IdemKey: j.IdemKey("aws_subnet.a"), Attrs: map[string]any{"cidr": "10.0.1.0/24", "name": "a"}, Deps: []string{"aws_vpc.main"}}),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("fixture step %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// withoutIntents returns raw with its intents frames cut out, failing unless
// raw is whole frames end to end.
func withoutIntents(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out []byte
	off := 0
	for off < len(raw) {
		payload, next, ok := wal.Next(raw, off)
		if !ok {
			t.Fatalf("no whole frame at offset %d of %d", off, len(raw))
		}
		var rec struct{ Kind string }
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		if rec.Kind != "intents" {
			out = append(out, raw[off:next]...)
		}
		off = next
	}
	return out
}

// TestJournalFormatUnchanged holds run.journal to the bytes the journal wrote
// before it moved onto wal.Log: testdata/parent-format/run.journal is
// writeJournalFixture run at that commit, when it still wrote an intents
// frame. It must replay to the same state, and the same calls through this
// journal must produce the same bytes less that one frame.
func TestJournalFormatUnchanged(t *testing.T) {
	fixturePath := filepath.Join("testdata", "parent-format", "run.journal")
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	js, err := ReadJournal(fixturePath)
	if err != nil || js == nil {
		t.Fatalf("ReadJournal(fixture) = %v, %v", js, err)
	}
	if js.Meta.ID != "apply-fixture" || js.Meta.BaseSerial != 7 || js.Meta.Principal != "alice" || len(js.Ops) != 3 {
		t.Errorf("fixture meta = %+v with %d ops", js.Meta, len(js.Ops))
	}
	if got := fmt.Sprint(js.InDoubt()); got != "[aws_subnet.a]" {
		t.Errorf("fixture in doubt = %s, want [aws_subnet.a]", got)
	}
	if st := js.Ops["aws_vpc.main"]; st == nil || st.Done == nil || st.Done.ID != "vpc-0001" {
		t.Errorf("fixture aws_vpc.main = %+v", st)
	}
	if st := js.Ops["aws_instance.old"]; st == nil || st.FailError != "dependency violation" {
		t.Errorf("fixture aws_instance.old = %+v", st)
	}
	if st := js.Ops["aws_subnet.a"]; st == nil || st.Begin.IdemKey != "apply-fixture/aws_subnet.a" {
		t.Errorf("fixture aws_subnet.a = %+v", st)
	}
	if after, _ := os.ReadFile(fixturePath); !bytes.Equal(after, fixture) {
		t.Error("ReadJournal modified the file")
	}

	want := withoutIntents(t, fixture)
	if len(want) >= len(fixture) {
		t.Fatal("the fixture holds no intents frame")
	}
	fresh := filepath.Join(t.TempDir(), "run.journal")
	writeJournalFixture(t, fresh)
	if raw, _ := os.ReadFile(fresh); !bytes.Equal(raw, want) {
		t.Errorf("run.journal differs from the parent format less its intents frame:\n got %q\nwant %q", raw, want)
	}
	// A journal extended by one more record still starts with what it held.
	l, err := wal.Open(fresh, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"kind":"done","op":{"addr":"aws_subnet.a","action":"create","type":"aws_subnet","id":"subnet-1"}}`), true); err != nil {
		t.Fatal(err)
	}
	l.Close(false)
	if raw, _ := os.ReadFile(fresh); !bytes.HasPrefix(raw, want) {
		t.Error("an append rewrote the bytes before it")
	}
	if js, err := ReadJournal(fresh); err != nil || len(js.InDoubt()) != 0 {
		t.Errorf("after the appended done record: in doubt = %v, %v", js.InDoubt(), err)
	}
}

// FuzzReadJournal feeds arbitrary bytes to journal replay. Invariants: it
// never panics or fails, it leaves the file alone, every in-doubt address has
// a recorded begin, and replay is deterministic.
func FuzzReadJournal(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-format", "run.journal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)-9])
	f.Add(wal.Encode([]byte(`{"kind":"begin"}`)))
	f.Add(wal.Encode([]byte(`{"kind":"done","op":{"addr":"x"}}`)))
	f.Add(wal.Encode([]byte(`{"kind":7}`)))
	path := filepath.Join(f.TempDir(), "run.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		js, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Fatal("ReadJournal modified the file")
		}
		if js == nil {
			return
		}
		for _, addr := range js.InDoubt() {
			if js.Ops[addr] == nil || js.Ops[addr].Begin == nil {
				t.Fatalf("in-doubt %q has no begin", addr)
			}
		}
		again, err := ReadJournal(path)
		if err != nil || again == nil || fmt.Sprint(again.InDoubt()) != fmt.Sprint(js.InDoubt()) || again.Meta != js.Meta {
			t.Fatalf("second replay differs: %+v, %v", again, err)
		}
	})
}

// orderLog interleaves what the journal's file and the cloud see, in the
// order they happen.
type orderLog struct {
	mu     sync.Mutex
	events []orderEvent
}

// orderEvent is a begin frame in the file ("begin"), an fsync entered
// ("sync") or returned ("synced"), or a mutation issued ("call"). key names
// the op on both sides: the idempotency key of a create, "action id" else.
type orderEvent struct{ kind, key string }

func (o *orderLog) add(kind, key string) {
	o.mu.Lock()
	o.events = append(o.events, orderEvent{kind, key})
	o.mu.Unlock()
}

// trace is the journal file's wal.Faulty.Trace.
func (o *orderLog) trace(op string, frame []byte) {
	if op != "write" {
		o.add(op, "")
		return
	}
	var rec journalRecord
	if err := json.Unmarshal(frame[wal.HeaderSize:], &rec); err != nil || rec.Kind != recBegin {
		return
	}
	if rec.Op.IdemKey != "" {
		o.add("begin", rec.Op.IdemKey)
	} else {
		o.add("begin", rec.Op.Action+" "+rec.Op.ID)
	}
}

// recordingCloud notes each mutation as it is issued.
type recordingCloud struct {
	cloud.Interface
	log *orderLog
}

func (c recordingCloud) Create(ctx context.Context, req cloud.CreateRequest) (*cloud.Resource, error) {
	c.log.add("call", req.IdempotencyKey)
	return c.Interface.Create(ctx, req)
}

func (c recordingCloud) Update(ctx context.Context, req cloud.UpdateRequest) (*cloud.Resource, error) {
	c.log.add("call", "update "+req.ID)
	return c.Interface.Update(ctx, req)
}

func (c recordingCloud) Delete(ctx context.Context, typ, id, principal string) error {
	c.log.add("call", "delete "+id)
	return c.Interface.Delete(ctx, typ, id, principal)
}

// TestBeginIsDurableBeforeTheCloudCall: with ten walkers sharing fsyncs, no
// create, update or delete is issued before an fsync that was entered after
// the op's begin frame was in the file has returned.
func TestBeginIsDurableBeforeTheCloudCall(t *testing.T) {
	const wide = `
resource "aws_vpc" "v" {
  count      = 40
  name       = "v-${count.index}"
  cidr_block = "10.0.0.0/16"
}
`
	sim := newSim()
	order := &orderLog{}
	cl := recordingCloud{Interface: sim, log: order}
	prior := state.New()
	begins := 0
	for _, src := range []string{wide, strings.ReplaceAll(wide, `"v-`, `"w-`), "# nothing left\n"} {
		j, _ := tempJournal(t)
		ff := wal.WrapFaulty(j.log)
		ff.Trace = order.trace
		p, res := planAndApply(t, cl, src, prior, Options{Journal: j, Concurrency: 10})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if err := j.Discard(); err != nil {
			t.Fatal(err)
		}
		// How much the walkers share depends on how long this disk's fsync
		// takes; internal/wal pins the sharing itself.
		t.Logf("%d ops, %d fsyncs", len(nonNoop(p)), ff.Syncs())
		begins += len(nonNoop(p))
		prior = res.State
	}

	written := map[string]int{} // begin key -> index of its write
	var durable []string        // begins in the file when the running fsync was entered
	safe := map[string]bool{}   // begins covered by an fsync that has returned
	calls := 0
	for i, ev := range order.events {
		switch ev.kind {
		case "begin":
			written[ev.key] = i
		case "sync":
			durable = durable[:0]
			for key := range written {
				durable = append(durable, key)
			}
		case "synced":
			for _, key := range durable {
				safe[key] = true
			}
		case "call":
			calls++
			if !safe[ev.key] {
				_, begun := written[ev.key]
				t.Errorf("event %d: %s reached the cloud before its begin record was durable (begin written: %v)", i, ev.key, begun)
			}
		}
	}
	if begins != 120 || calls != begins || len(written) != begins {
		t.Errorf("saw %d begin frames and %d cloud mutations for %d ops, want 120 of each", len(written), calls, begins)
	}
}

// TestKillTornUnderConcurrentWalkers: killing the journal mid-write while ten
// walkers append through it is free of races, reaches the disk no more after
// it returns, and leaves a journal that replays.
func TestKillTornUnderConcurrentWalkers(t *testing.T) {
	j, path := tempJournal(t)
	var writes atomic.Int32
	busy := make(chan struct{})
	wal.WrapFaulty(j.log).Trace = func(op string, _ []byte) {
		if op == "write" && writes.Add(1) == 100 {
			close(busy)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				addr := fmt.Sprintf("aws_vpc.v[%d-%d]", w, i)
				err := j.Begin(OpRecord{Addr: addr, Type: "aws_vpc"})
				if err == nil {
					err = j.Done(OpRecord{Addr: addr, Type: "aws_vpc", ID: "vpc-1"})
				}
				if err != nil {
					if !errors.Is(err, ErrJournalKilled) {
						t.Errorf("append: %v", err)
					}
					return
				}
			}
		}(w)
	}
	<-busy
	j.KillTorn()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if after, _ := os.Stat(path); after.Size() != fi.Size() {
		t.Errorf("journal grew from %d to %d bytes after KillTorn returned", fi.Size(), after.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	js, err := ReadJournal(path)
	if err != nil || js == nil || len(js.Ops) == 0 {
		t.Fatalf("journal after KillTorn = %+v, %v", js, err)
	}
	if _, ok := js.Ops["torn"]; ok {
		t.Error("torn frame surfaced in replay")
	}
}
