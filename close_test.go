package cloudless_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	cloudless "cloudless"
	"cloudless/internal/cloud"
)

// TestStackCloseDrains is the draining-close regression test: Close must
// wait for in-flight lifecycle operations instead of yanking the engine out
// from under them, refuse operations arriving afterwards with the typed
// *ErrStackClosed, and stay idempotent. Run under -race this also proves the
// drain gate itself is data-race free.
func TestStackCloseDrains(t *testing.T) {
	sim := newSim()
	s := openStack(t, sim, "")
	ctx := context.Background()
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]error, 10)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i == 0 {
				_, _, results[i] = s.Apply(ctx, p, cloudless.ApplyOptions{})
				return
			}
			_, results[i] = s.Plan(ctx)
		}(i)
	}
	close(start)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	// Every racing op either completed before the drain finished or was
	// refused up front with the typed error — never a torn half-run.
	var closed *cloudless.ErrStackClosed
	for i, err := range results {
		if err != nil && !errors.As(err, &closed) {
			t.Errorf("op %d: unexpected error %v", i, err)
		}
	}

	// Post-close: typed refusals everywhere, and Close is idempotent.
	if _, err := s.Plan(ctx); !errors.As(err, &closed) {
		t.Fatalf("Plan after Close: got %v, want *ErrStackClosed", err)
	}
	if _, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{}); !errors.As(err, &closed) {
		t.Fatalf("Apply after Close: got %v, want *ErrStackClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext after Close: %v", err)
	}
}

// TestStackCloseContextHonorsDeadline: a Close with an already-expired
// context must not release resources out from under an in-flight op; it
// reports the deadline error while the operation keeps running, and a later
// unbounded Close finishes the drain.
func TestStackCloseContextHonorsDeadline(t *testing.T) {
	// The apply's creates wait for release, so the apply is still in flight
	// when the expired close runs, however the goroutines are scheduled.
	sim := &heldCreates{Sim: newSim(), release: make(chan struct{})}
	s := openStack(t, sim, "")
	ctx := context.Background()
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}

	applyStarted := make(chan struct{})
	applyDone := make(chan error, 1)
	go func() {
		_, _, err := s.Apply(ctx, p, cloudless.ApplyOptions{
			OnEvent: func(e cloudless.Event) {
				if e.Kind == "apply.run_start" {
					close(applyStarted)
				}
			},
		})
		applyDone <- err
	}()
	<-applyStarted

	expired, cancel := context.WithCancel(ctx)
	cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.CloseContext(expired) }()
	select {
	case err = <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("CloseContext(expired) waited for the in-flight apply")
	}
	close(sim.release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CloseContext(expired) = %v, want context.Canceled", err)
	}
	// The in-flight apply must still complete cleanly: its engine was not
	// released mid-run.
	if err := <-applyDone; err != nil {
		t.Fatalf("apply interrupted by timed-out close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
}

// heldCreates is a cloud whose creates wait until release is closed.
type heldCreates struct {
	*cloud.Sim
	release chan struct{}
}

func (h *heldCreates) Create(ctx context.Context, req cloud.CreateRequest) (*cloud.Resource, error) {
	<-h.release
	return h.Sim.Create(ctx, req)
}

func (h *heldCreates) BatchCreate(ctx context.Context, reqs []cloud.CreateRequest) ([]cloud.BatchResult, error) {
	<-h.release
	return h.Sim.BatchCreate(ctx, reqs)
}

// TestSetVarConcurrentWithPlans: bindings and the expansion they produce
// change under one lock, so SetVar and Observe may run while other goroutines
// plan, validate and read — each reader sees one whole expansion (under -race
// this is the regression test for the unguarded w.expansion) — and both are
// lifecycle calls: refused with *ErrStackClosed once Close has begun.
func TestSetVarConcurrentWithPlans(t *testing.T) {
	s := openStack(t, newSim(), `
policy "grow" {
  phase = "operate"
  when  = metric.load > 0.8
  scale {
    variable = "vm_count"
    delta    = 1
    max      = 6
  }
}`)
	ctx := context.Background()
	const rounds = 50
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int) error { return s.SetVar("vm_count", 1+i%4) })
	run(func(int) error {
		_, err := s.Observe(map[string]any{"load": 0.9})
		return err
	})
	run(func(int) error {
		p, err := s.PlanOffline(ctx)
		if err != nil {
			return err
		}
		// vpc + subnet + one nic and one vm per vm_count, from one expansion.
		if n := p.Creates - 2; n < 2 || n > 12 || n%2 != 0 {
			t.Errorf("plan creates %d resources: not one expansion's worth", p.Creates)
		}
		return nil
	})
	run(func(int) error {
		if res := s.Validate(); res.HasErrors() {
			t.Errorf("validate: %v", res.Findings)
		}
		if n := len(s.Instances()) - 2; n < 2 || n > 12 || n%2 != 0 {
			t.Errorf("%d instances: not one expansion's worth", n+2)
		}
		if _, ok := s.Var("vm_count"); !ok {
			t.Error("vm_count unbound")
		}
		return nil
	})
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var closed *cloudless.ErrStackClosed
	if err := s.SetVar("vm_count", 3); !errors.As(err, &closed) {
		t.Errorf("SetVar after Close: got %v, want *ErrStackClosed", err)
	}
	if _, err := s.Observe(map[string]any{"load": 0.9}); !errors.As(err, &closed) {
		t.Errorf("Observe after Close: got %v, want *ErrStackClosed", err)
	}
}
