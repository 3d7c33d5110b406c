package cloudless_test

import (
	"context"
	"sync"
	"testing"

	cloudless "cloudless"
	"cloudless/internal/cloud"
)

const eventsConfig = `
resource "aws_vpc" "main" {
  name       = "ev"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "app" {
  name       = "ev-app"
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}
`

func openEventStack(t *testing.T) *cloudless.Stack {
	t.Helper()
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0 // instant cloud
	s, err := cloudless.Open(cloudless.Options{
		Sources: map[string]string{"main.ccl": eventsConfig},
		Cloud:   cloud.NewSim(opts),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func applyOnce(t *testing.T, s *cloudless.Stack, opts cloudless.ApplyOptions) {
	t.Helper()
	p, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeSeesApplyLifecycle asserts the facade's live event stream
// carries the full apply lifecycle, in order, with monotonic sequence
// numbers.
func TestSubscribeSeesApplyLifecycle(t *testing.T) {
	s := openEventStack(t)
	sub := s.Subscribe(cloudless.EventFilter{Kinds: []string{"apply."}})
	defer sub.Close()

	applyOnce(t, s, cloudless.ApplyOptions{})

	var kinds []string
	lastSeq := int64(0)
	collect := true
	for collect {
		select {
		case e := <-sub.C():
			if e.Seq <= lastSeq {
				t.Fatalf("seq went backwards: %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			kinds = append(kinds, e.Kind)
			if e.Kind == "apply.run_finish" {
				collect = false
			}
		default:
			collect = false
		}
	}

	if len(kinds) == 0 || kinds[0] != "apply.run_start" {
		t.Fatalf("first event = %v, want apply.run_start (all: %v)", kinds, kinds)
	}
	if kinds[len(kinds)-1] != "apply.run_finish" {
		t.Fatalf("last event = %s, want apply.run_finish", kinds[len(kinds)-1])
	}
	count := map[string]int{}
	for _, k := range kinds {
		count[k]++
	}
	if count["apply.wave_start"] != 1 || count["apply.wave_finish"] != 1 {
		t.Fatalf("wave events = %v", count)
	}
	// Two resources: two begins, two dones, zero fails.
	if count["apply.op_begin"] != 2 || count["apply.op_done"] != 2 || count["apply.op_fail"] != 0 {
		t.Fatalf("op events = %v", count)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d events on an idle subscriber", sub.Dropped())
	}
}

// TestOnEventCallbackSeesWholeRun asserts ApplyOptions.OnEvent observes the
// complete run — Apply drains the pump before returning.
func TestOnEventCallbackSeesWholeRun(t *testing.T) {
	s := openEventStack(t)
	var mu sync.Mutex
	var kinds []string
	applyOnce(t, s, cloudless.ApplyOptions{OnEvent: func(e cloudless.Event) {
		mu.Lock()
		kinds = append(kinds, e.Kind)
		mu.Unlock()
	}})
	mu.Lock()
	defer mu.Unlock()
	want := map[string]bool{"apply.run_start": false, "apply.op_done": false,
		"apply.run_finish": false, "provider.stats": false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("OnEvent never saw %s (got %v)", k, kinds)
		}
	}
}

// TestDriftEventsOnBus asserts out-of-band change shows up as
// drift.detected events on the stack bus.
func TestDriftEventsOnBus(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0
	sim := cloud.NewSim(opts)
	s, err := cloudless.Open(cloudless.Options{
		Sources: map[string]string{"main.ccl": eventsConfig},
		Cloud:   sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applyOnce(t, s, cloudless.ApplyOptions{})

	sub := s.Subscribe(cloudless.EventFilter{Kinds: []string{"drift.detected"}})
	defer sub.Close()

	// Out-of-band delete by another principal.
	st := s.DB().Snapshot()
	rs := st.Get("aws_subnet.app")
	if rs == nil {
		t.Fatal("subnet not in state")
	}
	if err := sim.Delete(context.Background(), rs.Type, rs.ID, "intruder"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.WatchDrift(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasDrift() {
		t.Fatal("expected drift")
	}
	select {
	case e := <-sub.C():
		if e.Kind != "drift.detected" || e.Action != "deleted" || e.Principal != "intruder" {
			t.Fatalf("drift event = %+v", e)
		}
	default:
		t.Fatal("no drift.detected event on bus")
	}
}
