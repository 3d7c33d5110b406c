package apply

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudless/internal/eval"
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
	intents := []Intent{
		{Addr: "aws_vpc.main", Action: "create", Type: "aws_vpc", Region: "us-east-1", Name: "main"},
		{Addr: "aws_subnet.s[0]", Action: "create", Type: "aws_subnet", Region: "us-east-1",
			Name: "s-0", Deps: []string{"aws_vpc.main"}},
		{Addr: "aws_vpc.old", Action: "delete", Type: "aws_vpc", Region: "us-east-1", ID: "vpc-00000009"},
	}
	if err := j.LogIntents(intents); err != nil {
		t.Fatal(err)
	}
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
	if len(js.Intents) != 3 {
		t.Fatalf("%d intents, want 3", len(js.Intents))
	}
	if js.IntentFor("aws_subnet.s[0]").Name != "s-0" {
		t.Errorf("intent lookup: %+v", js.IntentFor("aws_subnet.s[0]"))
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

// syncCounter wraps a journal's file and counts its fsyncs.
type syncCounter struct {
	wal.File
	syncs int
}

func (f *syncCounter) Sync() error {
	f.syncs++
	return f.File.Sync()
}

// TestJournalDiscardRemovesFile: Discard unlinks the journal without flushing
// it first (its outcome is already committed to the golden state); Close,
// which keeps the file for recovery, does flush the unsynced done records.
func TestJournalDiscardRemovesFile(t *testing.T) {
	kept, _ := tempJournal(t)
	sc := &syncCounter{}
	kept.log.Wrap(func(f wal.File) wal.File { sc.File = f; return sc })
	if err := kept.Done(OpRecord{Addr: "aws_vpc.a"}); err != nil || sc.syncs != 0 {
		t.Fatalf("Done = %v after %d fsyncs, want none", err, sc.syncs)
	}
	if err := kept.Close(); err != nil || sc.syncs != 1 {
		t.Fatalf("Close = %v after %d fsyncs, want the one that flushes done records", err, sc.syncs)
	}

	j, path := tempJournal(t)
	sc = &syncCounter{}
	j.log.Wrap(func(f wal.File) wal.File { sc.File = f; return sc })
	if err := j.Discard(); err != nil {
		t.Fatal(err)
	}
	if sc.syncs != 0 {
		t.Errorf("Discard fsynced the journal %d times before unlinking it", sc.syncs)
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
func writeJournalFixture(t *testing.T, path string) {
	t.Helper()
	j, err := NewJournal(path, Meta{ID: "apply-fixture", Kind: "apply", BaseSerial: 7, Principal: "alice",
		CreatedAt: time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		j.LogIntents([]Intent{
			{Addr: "aws_vpc.main", Action: "create", Type: "aws_vpc", Region: "us-east-1", Name: "main"},
			{Addr: "aws_subnet.a", Action: "create", Type: "aws_subnet", Region: "us-east-1", Name: "a", Deps: []string{"aws_vpc.main"}},
			{Addr: "aws_instance.old", Action: "delete", Type: "aws_instance", Region: "us-east-1", ID: "i-0001"},
			{Addr: "aws_instance.web", Action: "update", Type: "aws_instance", Region: "us-east-1", ID: "i-0002"},
		}),
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

// TestJournalFormatUnchanged holds run.journal to the bytes the journal wrote
// before it moved onto wal.Log: testdata/parent-format/run.journal is
// writeJournalFixture run at that commit. It must replay to the same state,
// and the same calls through this journal must produce the same bytes.
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
	if js.Meta.ID != "apply-fixture" || js.Meta.BaseSerial != 7 || js.Meta.Principal != "alice" || len(js.Intents) != 4 {
		t.Errorf("fixture meta = %+v with %d intents", js.Meta, len(js.Intents))
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

	fresh := filepath.Join(t.TempDir(), "run.journal")
	writeJournalFixture(t, fresh)
	if raw, _ := os.ReadFile(fresh); !bytes.Equal(raw, fixture) {
		t.Errorf("run.journal differs from the parent format:\n got %q\nwant %q", raw, fixture)
	}
	// A journal extended by one more record still starts with the fixture.
	l, err := wal.Open(fresh, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"kind":"done","op":{"addr":"aws_subnet.a","action":"create","type":"aws_subnet","id":"subnet-1"}}`), true); err != nil {
		t.Fatal(err)
	}
	l.Close(false)
	if raw, _ := os.ReadFile(fresh); !bytes.HasPrefix(raw, fixture) {
		t.Error("an append rewrote the bytes before it")
	}
	if js, err := ReadJournal(fresh); err != nil || len(js.InDoubt()) != 0 {
		t.Errorf("after the appended done record: in doubt = %v, %v", js.InDoubt(), err)
	}
}

// FuzzReadJournal feeds arbitrary bytes to journal replay. Invariants: it
// never panics or fails, it leaves the file alone, every in-doubt address has
// a recorded intent and begin, and replay is deterministic.
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
			if js.IntentFor(addr) == nil || js.Ops[addr] == nil || js.Ops[addr].Begin == nil {
				t.Fatalf("in-doubt %q has no intent or no begin", addr)
			}
		}
		again, err := ReadJournal(path)
		if err != nil || again == nil || fmt.Sprint(again.InDoubt()) != fmt.Sprint(js.InDoubt()) || again.Meta != js.Meta {
			t.Fatalf("second replay differs: %+v, %v", again, err)
		}
	})
}
