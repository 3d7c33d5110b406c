package cloud

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCoalescerBatchesConcurrentCreates: N callers issuing single Creates
// concurrently through a Coalescer must land in a handful of batch calls —
// the ≥5× calls-per-resource reduction the scale-out applier depends on —
// while every caller still gets its own resource.
func TestCoalescerBatchesConcurrentCreates(t *testing.T) {
	sim := newTestSim()
	co := NewCoalescer(sim, CoalescerOptions{Linger: 25 * time.Millisecond})
	ctx := context.Background()

	const n = 24
	resources := make([]*Resource, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resources[i], errs[i] = co.Create(ctx, CreateRequest{
				Type: "aws_vpc", Region: "us-east-1",
				Attrs: vpcAttrs(fmt.Sprintf("v-%d", i)), Principal: "test",
			})
		}(i)
	}
	wg.Wait()

	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("create %d: %s", i, errs[i])
		}
		if resources[i].Attr("name").AsString() != fmt.Sprintf("v-%d", i) {
			t.Errorf("create %d got resource %q", i, resources[i].Attr("name"))
		}
		seen[resources[i].ID] = true
	}
	if len(seen) != n {
		t.Errorf("distinct IDs = %d, want %d", len(seen), n)
	}
	m := sim.Metrics()
	if m.BatchItems != n {
		t.Errorf("batch items = %d, want %d (some creates went unbatched)", m.BatchItems, n)
	}
	if m.BatchCalls > int64(n/5) {
		t.Errorf("batch calls = %d for %d creates: coalescing below 5x", m.BatchCalls, n)
	}
}

// TestCoalescerBatchesConcurrentGets: same property for reads.
func TestCoalescerBatchesConcurrentGets(t *testing.T) {
	sim := newTestSim()
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = mustCreate(t, sim, "aws_vpc", "us-east-1", vpcAttrs(fmt.Sprintf("v-%d", i))).ID
	}
	base := sim.Metrics()

	co := NewCoalescer(sim, CoalescerOptions{Linger: 25 * time.Millisecond})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := co.Get(ctx, "aws_vpc", ids[i])
			if err == nil && res.ID != ids[i] {
				err = fmt.Errorf("got %q, want %q", res.ID, ids[i])
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("get %d: %s", i, err)
		}
	}
	m := sim.Metrics()
	if got := m.BatchItems - base.BatchItems; got != int64(len(ids)) {
		t.Errorf("batched reads = %d, want %d", got, len(ids))
	}
	if calls := m.BatchCalls - base.BatchCalls; calls > int64(len(ids)/5) {
		t.Errorf("batch calls = %d for %d gets: coalescing below 5x", calls, len(ids))
	}
}

// TestCoalescerIsolatesItemFailures: one bad request inside a window fails
// alone; its batch-mates succeed untouched.
func TestCoalescerIsolatesItemFailures(t *testing.T) {
	sim := newTestSim()
	co := NewCoalescer(sim, CoalescerOptions{Linger: 25 * time.Millisecond})
	ctx := context.Background()

	var wg sync.WaitGroup
	var goodRes *Resource
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodRes, goodErr = co.Create(ctx, CreateRequest{
			Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("good"), Principal: "test",
		})
	}()
	go func() {
		defer wg.Done()
		_, badErr = co.Create(ctx, CreateRequest{Type: "gcp_thing", Principal: "test"})
	}()
	wg.Wait()

	if goodErr != nil || goodRes == nil {
		t.Fatalf("good create: %v", goodErr)
	}
	if badErr == nil {
		t.Fatal("bad create succeeded")
	}
	if _, err := sim.Get(ctx, "aws_vpc", goodRes.ID); err != nil {
		t.Errorf("good resource missing from cloud: %s", err)
	}
}

// TestCoalescerSingleCallStillWorks: an isolated call rides a batch of one
// after the linger; semantics match a plain Create.
func TestCoalescerSingleCallStillWorks(t *testing.T) {
	sim := newTestSim()
	co := NewCoalescer(sim, CoalescerOptions{Linger: time.Millisecond})
	res, err := co.Create(context.Background(), CreateRequest{
		Type: "aws_vpc", Region: "us-east-1", Attrs: vpcAttrs("solo"), Principal: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.Get(context.Background(), "aws_vpc", res.ID)
	if err != nil || got.ID != res.ID {
		t.Fatalf("get after create: %v %v", got, err)
	}
}

// TestCoalescerForwardsBulkVerbs: a caller that already has a batch in hand
// reaches the wrapped cloud's BatchGet in one call — the Coalescer batches
// single Creates and Gets, it does not take a batch apart and rebuild it.
func TestCoalescerForwardsBulkVerbs(t *testing.T) {
	sim := newTestSim()
	keys := make([]ResourceKey, 200)
	for i := range keys {
		keys[i] = ResourceKey{Type: "aws_vpc", ID: mustCreate(t, sim, "aws_vpc", "us-east-1", vpcAttrs(fmt.Sprintf("v-%d", i))).ID}
	}
	base := sim.Metrics()

	co := NewCoalescer(sim, CoalescerOptions{})
	results, err := co.BatchGet(context.Background(), keys)
	if err != nil || len(results) != len(keys) {
		t.Fatalf("batch get => %d results, %v", len(results), err)
	}
	for i, r := range results {
		if r.Err != nil || r.Resource.ID != keys[i].ID {
			t.Fatalf("item %d => %v, %v; want %s", i, r.Resource, r.Err, keys[i].ID)
		}
	}
	m := sim.Metrics()
	if calls := m.BatchCalls - base.BatchCalls; calls != 1 {
		t.Errorf("batch calls = %d for one BatchGet of %d keys, want 1", calls, len(keys))
	}
	if reads := m.Reads - base.Reads; reads != int64(len(keys)) {
		t.Errorf("reads = %d, want %d", reads, len(keys))
	}
}
