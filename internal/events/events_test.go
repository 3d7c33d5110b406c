package events

import (
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
