package events

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPublishSequencesMonotonic(t *testing.T) {
	b := NewBus(nil)
	defer b.Close()
	sub := b.Subscribe(Filter{}, 16)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: "test.tick"})
	}
	for i := 1; i <= 10; i++ {
		e := <-sub.C()
		if e.Seq != int64(i) {
			t.Fatalf("seq %d, want %d", e.Seq, i)
		}
		if e.Time == 0 {
			t.Fatal("timestamp not assigned")
		}
	}
	if got := b.LastSeq(); got != 10 {
		t.Fatalf("LastSeq=%d, want 10", got)
	}
}

func TestFilterKindsAndPrefix(t *testing.T) {
	b := NewBus(nil)
	defer b.Close()
	sub := b.Subscribe(Filter{Kinds: []string{"apply.", "drift.detected"}}, 16)
	b.Publish(Event{Kind: "apply.op_done"})
	b.Publish(Event{Kind: "provider.throttled"}) // filtered out
	b.Publish(Event{Kind: "drift.detected"})
	b.Publish(Event{Kind: "drift.other"}) // filtered out
	e1, e2 := <-sub.C(), <-sub.C()
	if e1.Kind != "apply.op_done" || e2.Kind != "drift.detected" {
		t.Fatalf("got %q, %q", e1.Kind, e2.Kind)
	}
	select {
	case e := <-sub.C():
		t.Fatalf("unexpected event %q", e.Kind)
	default:
	}
}

func TestSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBus(nil)
	defer b.Close()
	sub := b.Subscribe(Filter{}, 4)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: "test.tick"})
	}
	if got := sub.Dropped(); got != 6 {
		t.Fatalf("Dropped=%d, want 6", got)
	}
	// Oldest were evicted: the buffer holds the newest 4 (seqs 7..10).
	var seqs []int64
	for i := 0; i < 4; i++ {
		seqs = append(seqs, (<-sub.C()).Seq)
	}
	want := []int64{7, 8, 9, 10}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("buffered seqs %v, want %v", seqs, want)
		}
	}
}

func TestDropAccountingExact(t *testing.T) {
	// received + dropped == published, under concurrent publishers.
	b := NewBus(nil)
	sub := b.Subscribe(Filter{}, 8)
	const publishers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Kind: "test.tick"})
			}
		}()
	}
	var received int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C() {
			received++
			time.Sleep(10 * time.Microsecond) // deliberately slow consumer
		}
	}()
	wg.Wait()
	dropped := sub.Dropped()
	sub.Close()
	<-done
	if received+dropped != publishers*per {
		t.Fatalf("received %d + dropped %d != published %d", received, dropped, publishers*per)
	}
	if dropped == 0 {
		t.Log("warning: slow consumer kept up; drop path not exercised")
	}
}

func TestSinceWatermarkResume(t *testing.T) {
	b := NewBus(nil)
	defer b.Close()
	for i := 0; i < 20; i++ {
		b.Publish(Event{Kind: "test.tick"})
	}
	got := b.Since(12)
	if len(got) != 8 {
		t.Fatalf("Since(12) returned %d events, want 8", len(got))
	}
	for i, e := range got {
		if e.Seq != int64(13+i) {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate)", i, e.Seq, 13+i)
		}
	}
	if extra := b.Since(20); len(extra) != 0 {
		t.Fatalf("Since(last) returned %d events, want 0", len(extra))
	}
}

func TestNilBusSafe(t *testing.T) {
	var b *Bus
	if seq := b.Publish(Event{Kind: "x"}); seq != 0 {
		t.Fatal("nil publish returned nonzero seq")
	}
	if b.LastSeq() != 0 || b.Since(0) != nil {
		t.Fatal("nil bus not inert")
	}
	sub := b.Subscribe(Filter{}, 1)
	select {
	case <-sub.C():
		t.Fatal("nil-bus subscription delivered")
	default:
	}
	sub.Close()
	b.Close()
	FromContext(WithBus(nil, nil)) // no panic
}

func TestCloseUnblocksSubscribers(t *testing.T) {
	b := NewBus(nil)
	sub := b.Subscribe(Filter{}, 4)
	done := make(chan struct{})
	go func() {
		for range sub.C() {
		}
		close(done)
	}()
	b.Publish(Event{Kind: "x"})
	b.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber not released on bus close")
	}
	if b.Publish(Event{Kind: "x"}) != 0 {
		t.Fatal("publish after close assigned a seq")
	}
	// Subscribe after close yields a closed channel, not a hang.
	if _, ok := <-b.Subscribe(Filter{}, 1).C(); ok {
		t.Fatal("post-close subscription delivered an event")
	}
}

func TestConcurrentPublishSubscribeRace(t *testing.T) {
	b := NewBus(nil)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Kind: "test.tick"})
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub := b.Subscribe(Filter{}, 8)
				for j := 0; j < 5; j++ {
					select {
					case <-sub.C():
					default:
					}
				}
				sub.Dropped()
				sub.Close()
			}
		}()
	}
	wg.Wait()
	b.Close()
	// All sequence numbers were assigned exactly once.
	if got := b.LastSeq(); got != 800 {
		t.Fatalf("LastSeq=%d, want 800", got)
	}
}

func TestFlightRecorderPersistsAndRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.events.jsonl")
	b := NewBus(nil)
	rec, err := NewFlightRecorder(path, b)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Kind: "apply.run_start", Run: "r1"})
	b.Publish(Event{Kind: "apply.op_done", Addr: "aws_vpc.main"})
	b.Publish(Event{Kind: "apply.run_finish", Run: "r1"})
	// Second run truncates: artifact should hold only r2's events after.
	b.Publish(Event{Kind: "apply.run_start", Run: "r2"})
	b.Publish(Event{Kind: "apply.run_finish", Run: "r2"})
	b.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != "apply.run_start" || got[0].Run != "r2" {
		t.Fatalf("flight log = %+v, want r2's 2 events", got)
	}
}

func TestFlightRecorderBoundsTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.events.jsonl")
	b := NewBus(nil)
	rec, err := NewFlightRecorder(path, b)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(Event{Kind: "apply.run_start"})
	for i := 0; i < flightKeep+500; i++ {
		b.Publish(Event{Kind: "test.tick", N: int64(i)})
	}
	b.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > flightKeep {
		t.Fatalf("flight log holds %d events, want <= %d", len(got), flightKeep)
	}
	// The tail is the NEWEST events.
	if last := got[len(got)-1]; last.N != flightKeep+500-1 {
		t.Fatalf("last event N=%d, want %d", last.N, flightKeep+500-1)
	}
	fi, _ := os.Stat(path)
	if fi.Size() == 0 {
		t.Fatal("artifact empty")
	}
}

// TestFlightRecorderRewritesOncePerBudget: a long run appends one line per
// event and rewrites the artifact only when it holds twice flightKeep lines,
// not on every event past the budget; readers still get the newest flightKeep.
func TestFlightRecorderRewritesOncePerBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.events.jsonl")
	b := NewBus(nil)
	rec, err := NewFlightRecorder(path, b)
	if err != nil {
		t.Fatal(err)
	}
	lines := func() int {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(raw), "\n")
	}
	n := 0
	tick := func(count int) {
		for i := 0; i < count; i++ {
			rec.record(Event{Kind: "test.tick", N: int64(n)})
			n++
		}
	}
	tick(2*flightKeep - 1)
	if got := lines(); got != 2*flightKeep-1 {
		t.Fatalf("artifact holds %d lines before the first rewrite, want every one of %d", got, 2*flightKeep-1)
	}
	tick(1)
	if got := lines(); got != flightKeep {
		t.Fatalf("artifact holds %d lines after the rewrite, want %d", got, flightKeep)
	}
	tick(10)
	if got := lines(); got != flightKeep+10 {
		t.Fatalf("artifact holds %d lines, want %d: the events after a rewrite are appended", got, flightKeep+10)
	}
	b.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != flightKeep || got[len(got)-1].N != int64(n-1) || got[0].N != int64(n-flightKeep) {
		t.Fatalf("read %d events [%d..%d], want the newest %d ending at %d", len(got), got[0].N, got[len(got)-1].N, flightKeep, n-1)
	}
}

func TestReadFlightLogToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.jsonl")
	body := ""
	for i := 0; i < 3; i++ {
		body += fmt.Sprintf(`{"seq":%d,"time":1,"kind":"test.tick"}`+"\n", i+1)
	}
	body += `{"seq":4,"ti` // torn mid-write
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
}
