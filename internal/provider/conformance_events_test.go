package provider

import (
	"context"
	"sync"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/events"
)

// mutate drives an identical mutation script against an endpoint: 3 creates,
// 1 update, 1 delete — 5 activity-log events.
func mutate(t *testing.T, rt *Runtime) {
	t.Helper()
	ctx := context.Background()
	var ids []string
	for _, name := range []string{"ev-a", "ev-b", "ev-c"} {
		res, err := rt.Create(ctx, cloud.CreateRequest{
			Type: "aws_vpc", Region: "us-east-1",
			Attrs:     map[string]eval.Value{"name": eval.String(name), "cidr_block": eval.String("10.0.0.0/16")},
			Principal: "conf",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	if _, err := rt.Update(ctx, cloud.UpdateRequest{
		Type: "aws_vpc", ID: ids[0],
		Attrs:     map[string]eval.Value{"name": eval.String("ev-a2")},
		Principal: "conf",
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Delete(ctx, "aws_vpc", ids[2], "conf"); err != nil {
		t.Fatal(err)
	}
}

// drain consumes the endpoint's event stream via watermark long-polls until
// it has seen through lastSeq, simulating a consumer that disconnects after
// every batch and resumes from its watermark.
func drain(t *testing.T, rt *Runtime, since, lastSeq int64) []cloud.Event {
	t.Helper()
	var out []cloud.Event
	watermark := since
	for watermark < lastSeq {
		batch, err := rt.WaitActivity(context.Background(), watermark, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatalf("long-poll timed out at watermark %d (want through %d)", watermark, lastSeq)
		}
		out = append(out, batch...)
		watermark = batch[len(batch)-1].Seq
	}
	return out
}

// TestConformanceEventStream proves the event stream behaves identically on
// the in-process and HTTP paths: the same mutation script yields the same
// event sequence, and a consumer that disconnects mid-stream and resumes
// from its watermark sees every event exactly once — no gaps, no duplicates.
func TestConformanceEventStream(t *testing.T) {
	sequences := map[string][]cloud.Event{}
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			opts.TimeScale = 0
			rt, sim := ep.make(t, opts, Options{})

			mutate(t, rt)
			last := sim.LastSeq()
			if last != 5 {
				t.Fatalf("LastSeq = %d, want 5", last)
			}

			// First leg: consume part of the stream, then "disconnect".
			first, err := rt.WaitActivity(context.Background(), 0, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 {
				t.Fatal("no events on first poll")
			}
			cut := (len(first) + 1) / 2
			consumed := append([]cloud.Event(nil), first[:cut]...)

			// Resume from the watermark of the last PROCESSED event — not
			// from wherever the transport got to before the disconnect.
			consumed = append(consumed, drain(t, rt, consumed[cut-1].Seq, last)...)

			// Exactly once: seqs are 1..last with no gaps or duplicates.
			if int64(len(consumed)) != last {
				t.Fatalf("consumed %d events, want %d", len(consumed), last)
			}
			for i, e := range consumed {
				if e.Seq != int64(i+1) {
					t.Fatalf("event %d has seq %d: gap or duplicate in resumed stream", i, e.Seq)
				}
			}
			sequences[ep.name] = consumed
		})
	}

	// Cross-backend: identical observable sequences.
	simSeq, httpSeq := sequences["sim"], sequences["http"]
	if len(simSeq) == 0 || len(httpSeq) != len(simSeq) {
		t.Fatalf("sequence lengths differ: sim=%d http=%d", len(simSeq), len(httpSeq))
	}
	for i := range simSeq {
		a, b := simSeq[i], httpSeq[i]
		if a.Seq != b.Seq || a.Op != b.Op || a.Type != b.Type || a.Region != b.Region || a.Principal != b.Principal {
			t.Fatalf("event %d differs across backends:\nsim:  %+v\nhttp: %+v", i, a, b)
		}
	}
}

// TestConformanceActivityBusExactlyOnce proves the runtime's cloud.activity
// republication is exactly-once even when multiple readers race the same
// log: the CAS-claimed watermark ranges abut, so the bus carries each
// activity seq once per endpoint type.
func TestConformanceActivityBusExactlyOnce(t *testing.T) {
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			opts.TimeScale = 0
			bus := events.NewBus(nil)
			defer bus.Close()
			sub := bus.Subscribe(events.Filter{Kinds: []string{"cloud.activity"}}, 1024)
			rt, sim := ep.make(t, opts, Options{Bus: bus})

			mutate(t, rt)
			last := sim.LastSeq()

			// Racing readers over the full log: every event seq must reach
			// the bus exactly once.
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := rt.Activity(context.Background(), 0); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			got := map[int64]int{}
			for done := false; !done; {
				select {
				case e := <-sub.C():
					got[e.CloudSeq]++
				default:
					done = true
				}
			}
			for seq := int64(1); seq <= last; seq++ {
				if got[seq] != 1 {
					t.Fatalf("activity seq %d republished %d times, want exactly 1 (all: %v)",
						seq, got[seq], got)
				}
			}
			if int64(len(got)) != last {
				t.Fatalf("bus carried %d distinct seqs, want %d", len(got), last)
			}
		})
	}
}
