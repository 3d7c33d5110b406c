package provider

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/telemetry"
)

// fakeCloud is a scriptable upstream: per-op call counters, an error queue
// consumed before successes, and an optional hold channel that blocks reads
// until released (for coalescing tests).
type fakeCloud struct {
	mu      sync.Mutex
	gets    int
	lists   int
	acts    int
	creates int
	updates int
	errs    []error // popped per call until empty
	hold    chan struct{}

	res map[string]*cloud.Resource
}

func newFakeCloud() *fakeCloud {
	return &fakeCloud{res: map[string]*cloud.Resource{}}
}

func (f *fakeCloud) put(typ, id, region string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.res[typ+"/"+id] = &cloud.Resource{ID: id, Type: typ, Region: region,
		Attrs: map[string]eval.Value{"name": eval.String(id)}}
}

func (f *fakeCloud) popErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.errs) == 0 {
		return nil
	}
	err := f.errs[0]
	f.errs = f.errs[1:]
	return err
}

func (f *fakeCloud) waitHold(ctx context.Context) error {
	f.mu.Lock()
	hold := f.hold
	f.mu.Unlock()
	if hold == nil {
		return nil
	}
	select {
	case <-hold:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeCloud) Get(ctx context.Context, typ, id string) (*cloud.Resource, error) {
	f.mu.Lock()
	f.gets++
	f.mu.Unlock()
	if err := f.waitHold(ctx); err != nil {
		return nil, err
	}
	if err := f.popErr(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.res[typ+"/"+id]
	if !ok {
		return nil, &cloud.APIError{Code: cloud.CodeNotFound, Op: "get", Type: typ, ID: id, Message: "ResourceNotFound"}
	}
	return r.Clone(), nil
}

func (f *fakeCloud) List(ctx context.Context, typ, region string) ([]*cloud.Resource, error) {
	f.mu.Lock()
	f.lists++
	f.mu.Unlock()
	if err := f.waitHold(ctx); err != nil {
		return nil, err
	}
	if err := f.popErr(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*cloud.Resource
	for _, r := range f.res {
		if r.Type == typ && (region == "" || r.Region == region) {
			out = append(out, r.Clone())
		}
	}
	return out, nil
}

func (f *fakeCloud) Create(ctx context.Context, req cloud.CreateRequest) (*cloud.Resource, error) {
	f.mu.Lock()
	f.creates++
	f.mu.Unlock()
	if err := f.popErr(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &cloud.Resource{ID: "r-" + req.Type, Type: req.Type, Region: req.Region, Attrs: req.Attrs}
	f.res[req.Type+"/"+r.ID] = r
	return r.Clone(), nil
}

func (f *fakeCloud) Update(ctx context.Context, req cloud.UpdateRequest) (*cloud.Resource, error) {
	f.mu.Lock()
	f.updates++
	defer f.mu.Unlock()
	r, ok := f.res[req.Type+"/"+req.ID]
	if !ok {
		return nil, &cloud.APIError{Code: cloud.CodeNotFound, Op: "update", Type: req.Type, ID: req.ID, Message: "ResourceNotFound"}
	}
	for k, v := range req.Attrs {
		r.Attrs[k] = v
	}
	r.Generation++
	return r.Clone(), nil
}

func (f *fakeCloud) Delete(ctx context.Context, typ, id, principal string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.res, typ+"/"+id)
	return nil
}

func (f *fakeCloud) Health(ctx context.Context, typ, id string) (*cloud.HealthReport, error) {
	if err := f.popErr(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.res[typ+"/"+id]; !ok {
		return nil, &cloud.APIError{Code: cloud.CodeNotFound, Op: "health", Type: typ, ID: id, Message: "ResourceNotFound"}
	}
	return &cloud.HealthReport{Status: cloud.HealthReady}, nil
}

func (f *fakeCloud) Activity(ctx context.Context, afterSeq int64) ([]cloud.Event, error) {
	f.mu.Lock()
	f.acts++
	f.mu.Unlock()
	return nil, nil
}

// The bulk verbs of the fake are its single verbs item by item: the runtime's
// accounting (gets, lists, acts) reads the same either way.

func (f *fakeCloud) BatchCreate(ctx context.Context, reqs []cloud.CreateRequest) ([]cloud.BatchResult, error) {
	out := make([]cloud.BatchResult, len(reqs))
	for i, req := range reqs {
		out[i].Resource, out[i].Err = f.Create(ctx, req)
	}
	return out, nil
}

func (f *fakeCloud) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	out := make([]cloud.BatchResult, len(keys))
	for i, k := range keys {
		out[i].Resource, out[i].Err = f.Get(ctx, k.Type, k.ID)
	}
	return out, nil
}

func (f *fakeCloud) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*cloud.ListPageResult, error) {
	all, err := f.List(ctx, typ, region)
	if err != nil {
		return nil, err
	}
	return &cloud.ListPageResult{Resources: all}, nil
}

func (f *fakeCloud) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]cloud.Event, error) {
	return f.Activity(ctx, afterSeq)
}

func (f *fakeCloud) getCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets
}

// testOptions: virtual clock, recorded no-op sleep, deterministic jitter.
func testOptions(sleeps *[]time.Duration) Options {
	var mu sync.Mutex
	return Options{
		Clock: telemetry.NewVirtualClock(time.Unix(1000, 0), time.Microsecond),
		Sleep: func(ctx context.Context, d time.Duration) error {
			if sleeps != nil {
				mu.Lock()
				*sleeps = append(*sleeps, d)
				mu.Unlock()
			}
			return ctx.Err()
		},
	}
}

func TestCacheServesRepeatReads(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	rt := New(f, testOptions(nil))
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		r, err := rt.Get(ctx, "aws_vpc", "vpc-1")
		if err != nil || r.ID != "vpc-1" {
			t.Fatalf("get %d: %v %v", i, r, err)
		}
	}
	if got := f.getCount(); got != 1 {
		t.Errorf("upstream gets = %d, want 1 (cache)", got)
	}
	st := rt.Stats()
	if st.CacheHits != 4 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 4 hits / 1 miss", st)
	}

	// Lists cache too, keyed by region.
	for i := 0; i < 3; i++ {
		if _, err := rt.List(ctx, "aws_vpc", "us-east-1"); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	lists := f.lists
	f.mu.Unlock()
	if lists != 1 {
		t.Errorf("upstream lists = %d, want 1", lists)
	}
}

func TestWritesInvalidateAndWriteThrough(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	rt := New(f, testOptions(nil))
	ctx := context.Background()

	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	// Lists of the type in every spelling, and one of another type.
	listAll := func() int {
		t.Helper()
		for _, l := range [][2]string{{"aws_vpc", ""}, {"aws_vpc", "us-east-1"}, {"aws_subnet", ""}} {
			if _, err := rt.List(ctx, l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.ListPage(ctx, "aws_vpc", "", 10, ""); err != nil {
			t.Fatal(err)
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.lists
	}
	listsBefore := listAll()
	// The update response write-throughs into the Get cache...
	upd, err := rt.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: "vpc-1",
		Attrs: map[string]eval.Value{"name": eval.String("renamed")}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Get(ctx, "aws_vpc", "vpc-1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attr("name").Equal(upd.Attr("name")) {
		t.Errorf("cached get after update = %v, want renamed", got.Attr("name"))
	}
	if f.getCount() != 1 {
		t.Errorf("upstream gets = %d, want 1 (write-through serves the read)", f.getCount())
	}
	// ...and invalidates the type's list entries — both regions and the
	// page — while the other type's list stays cached.
	if listsAfter := listAll(); listsAfter != listsBefore+3 {
		t.Errorf("upstream lists went %d -> %d after a vpc update, want the 3 vpc listings refetched and the subnet one served from cache",
			listsBefore, listsAfter)
	}

	// Delete drops the Get entry.
	if err := rt.Delete(ctx, "aws_vpc", "vpc-1", "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); !cloud.IsNotFound(err) {
		t.Errorf("get after delete = %v, want NotFound", err)
	}
}

// TestCacheBoundCountsEveryBucket: list entries sit in per-type buckets but
// count against the one bound, and the overflow sweep reaches them.
func TestCacheBoundCountsEveryBucket(t *testing.T) {
	c := newTTLCache(time.Minute)
	now := time.Unix(0, 0)
	held := func() int {
		n := len(c.m)
		for _, b := range c.lists {
			n += len(b)
		}
		return n
	}
	for i := 0; i < 3*cacheMaxEntries; i++ {
		c.put(getKey("aws_vpc", fmt.Sprint(i)), i, now)
		c.put(listKey(fmt.Sprintf("type%d", i%7), fmt.Sprint(i)), i, now)
		c.put(listKey("aws_vpc", "")+"?limit=10&after="+fmt.Sprint(i), i, now)
		if held() != c.size || c.size > cacheMaxEntries {
			t.Fatalf("after %d rounds: %d entries held, %d counted, bound %d", i+1, held(), c.size, cacheMaxEntries)
		}
	}
	if len(c.lists["aws_vpc"]) == 0 || len(c.lists["type3"]) == 0 {
		t.Fatalf("buckets hold %d and %d entries", len(c.lists["aws_vpc"]), len(c.lists["type3"]))
	}
	c.invalidateLists("aws_vpc")
	if len(c.lists["aws_vpc"]) != 0 || len(c.lists["type3"]) == 0 || held() != c.size {
		t.Errorf("after dropping one type's lists: %d of its entries left, %d of another's, %d held, %d counted",
			len(c.lists["aws_vpc"]), len(c.lists["type3"]), held(), c.size)
	}
	c.invalidate(getKey("aws_vpc", fmt.Sprint(3*cacheMaxEntries-1)))
	if _, ok := c.get(listKey("type3", "gone"), now); ok || held() != c.size {
		t.Errorf("%d held, %d counted after invalidating one entry", held(), c.size)
	}
}

func TestActivityEventsInvalidate(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	rt := New(f, testOptions(nil))
	ctx := context.Background()

	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	// A foreign event for vpc-1 flows through the runtime.
	rt.observeEvents(context.Background(), []cloud.Event{{Seq: 7, Op: cloud.OpUpdate, Type: "aws_vpc", ID: "vpc-1", Principal: "legacy"}})
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if f.getCount() != 2 {
		t.Errorf("upstream gets = %d, want 2 (event invalidated the entry)", f.getCount())
	}
	// The same seq again must not invalidate twice.
	rt.observeEvents(context.Background(), []cloud.Event{{Seq: 7, Op: cloud.OpUpdate, Type: "aws_vpc", ID: "vpc-1", Principal: "legacy"}})
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if f.getCount() != 2 {
		t.Errorf("upstream gets = %d, want 2 (watermark suppresses replay)", f.getCount())
	}
}

func TestFreshBypassesCacheButStillStores(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	rt := New(f, testOptions(nil))
	ctx := context.Background()

	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(WithFresh(ctx), "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if f.getCount() != 2 {
		t.Errorf("fresh read did not hit upstream (gets = %d)", f.getCount())
	}
	// The fresh result refreshed the cache for subsequent cached reads.
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if f.getCount() != 2 {
		t.Errorf("cached read after fresh hit upstream (gets = %d)", f.getCount())
	}
}

func TestCoalescingSharesOneFlight(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	f.hold = make(chan struct{})
	rt := New(f, Options{Clock: telemetry.NewVirtualClock(time.Unix(1000, 0), time.Microsecond)})
	ctx := WithFresh(context.Background()) // bypass cache so all readers race

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rt.Get(ctx, "aws_vpc", "vpc-1")
		}(i)
	}
	// Wait until every reader has either joined the flight or is the leader.
	deadline := time.After(2 * time.Second)
	for {
		st := rt.Stats()
		if st.Coalesced >= readers-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("readers never coalesced: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
	close(f.hold)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := f.getCount(); got != 1 {
		t.Errorf("upstream gets = %d, want 1 (singleflight)", got)
	}
}

func TestCoalescedFlightSurvivesLeaderCancel(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	f.hold = make(chan struct{})
	rt := New(f, Options{Clock: telemetry.NewVirtualClock(time.Unix(1000, 0), time.Microsecond)})

	leaderCtx, cancelLeader := context.WithCancel(WithFresh(context.Background()))
	leaderErr := make(chan error, 1)
	go func() {
		_, err := rt.Get(leaderCtx, "aws_vpc", "vpc-1")
		leaderErr <- err
	}()
	// Wait for the leader's flight to be airborne.
	waitFor(t, func() bool { return f.getCount() == 1 })

	followerErr := make(chan error, 1)
	go func() {
		_, err := rt.Get(WithFresh(context.Background()), "aws_vpc", "vpc-1")
		followerErr <- err
	}()
	waitFor(t, func() bool { return rt.Stats().Coalesced == 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	close(f.hold)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower err = %v, want success despite leader cancel", err)
	}
	if got := f.getCount(); got != 1 {
		t.Errorf("upstream gets = %d, want 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRetryFullJitterAndRetryAfter(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	throttle := &cloud.APIError{Code: cloud.CodeThrottled, Retryable: true, Message: "TooManyRequests"}
	f.errs = []error{throttle, throttle, throttle}

	var sleeps []time.Duration
	opts := testOptions(&sleeps)
	opts.MaxRetries = 5
	opts.RetryBase = 50 * time.Millisecond
	rt := New(f, opts)

	ctx, counter := WithRetryCounter(context.Background())
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if counter.Load() != 3 {
		t.Errorf("retry counter = %d, want 3", counter.Load())
	}
	if len(sleeps) != 3 {
		t.Fatalf("sleeps = %v, want 3", sleeps)
	}
	for i, d := range sleeps {
		ceil := 50 * time.Millisecond << uint(i)
		if d < 0 || d >= ceil {
			t.Errorf("sleep %d = %v, want full jitter in [0, %v)", i, d, ceil)
		}
	}

	// Retry-After is a floor on the jittered backoff.
	f.errs = []error{&cloud.APIError{Code: cloud.CodeThrottled, Retryable: true,
		RetryAfter: 900 * time.Millisecond, Message: "TooManyRequests"}}
	sleeps = sleeps[:0]
	if _, err := rt.Get(WithFresh(ctx), "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if len(sleeps) != 1 || sleeps[0] < 900*time.Millisecond {
		t.Errorf("sleeps = %v, want one sleep >= Retry-After", sleeps)
	}
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	throttle := &cloud.APIError{Code: cloud.CodeThrottled, Retryable: true, Message: "TooManyRequests"}
	f.errs = []error{throttle, throttle, throttle, throttle}

	opts := testOptions(nil)
	opts.MaxRetries = 2
	rt := New(f, opts)
	_, err := rt.Get(context.Background(), "aws_vpc", "vpc-1")
	if !cloud.IsThrottled(err) {
		t.Fatalf("err = %v, want wrapped throttle", err)
	}
	if f.getCount() != 2 {
		t.Errorf("attempts = %d, want MaxRetries = 2", f.getCount())
	}
}

func TestNonRetryableReturnsImmediately(t *testing.T) {
	f := newFakeCloud()
	opts := testOptions(nil)
	rt := New(f, opts)
	_, err := rt.Get(context.Background(), "aws_vpc", "nope")
	if !cloud.IsNotFound(err) {
		t.Fatalf("err = %v, want NotFound", err)
	}
	if f.getCount() != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on 404)", f.getCount())
	}
}

func TestAIMDWindowHalvesAndRecovers(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	opts := testOptions(nil)
	opts.MaxInFlight = 16
	// Virtual clock steps 1µs per read; congestion cooldown is 100ms, so
	// halvings more than one burst apart need explicit Advance.
	clk := telemetry.NewVirtualClock(time.Unix(1000, 0), time.Microsecond)
	opts.Clock = clk
	rt := New(f, opts)
	ctx := context.Background()

	throttle := &cloud.APIError{Code: cloud.CodeThrottled, Retryable: true, Message: "TooManyRequests"}
	f.errs = []error{throttle}
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if w := st.Windows["aws"]; w > 8.5 {
		t.Errorf("window after one 429 = %v, want halved from 16", w)
	}
	if st.Throttles != 1 {
		t.Errorf("throttles = %d, want 1", st.Throttles)
	}

	// A second congestion event inside the cooldown must NOT halve again.
	f.errs = []error{throttle}
	if _, err := rt.Get(WithFresh(ctx), "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if w := rt.Stats().Windows["aws"]; w < 7.5 {
		t.Errorf("window halved inside cooldown: %v", w)
	}

	// Successes grow the window additively (1/W per success).
	before := rt.Stats().Windows["aws"]
	for i := 0; i < 40; i++ {
		if _, err := rt.Get(WithFresh(ctx), "aws_vpc", "vpc-1"); err != nil {
			t.Fatal(err)
		}
	}
	after := rt.Stats().Windows["aws"]
	if after <= before {
		t.Errorf("window did not grow on success: %v -> %v", before, after)
	}
	if after > float64(opts.MaxInFlight) {
		t.Errorf("window exceeded ceiling: %v", after)
	}
}

func TestGateBoundsInFlight(t *testing.T) {
	g := newGate(2, false)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- g.Acquire(ctx) }()
	select {
	case <-blocked:
		t.Fatal("third acquire should block at window 2")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("release did not wake waiter")
	}
	// A canceled waiter returns promptly.
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- g.Acquire(cctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire = %v", err)
	}
}

func TestNewIsIdempotentAndUnwraps(t *testing.T) {
	f := newFakeCloud()
	rt := New(f, Options{})
	if again := New(rt, Options{MaxRetries: 99}); again != rt {
		t.Error("New on a Runtime must return it unchanged")
	}
	if up := Unwrap(rt); up != cloud.Interface(f) {
		t.Error("Unwrap must expose the upstream")
	}
	if up := Unwrap(f); up != cloud.Interface(f) {
		t.Error("Unwrap on a non-Runtime must be identity")
	}
}

func TestRuntimeMetricsFlow(t *testing.T) {
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	reg := telemetry.NewRegistry()
	opts := testOptions(nil)
	opts.Registry = reg
	throttle := &cloud.APIError{Code: cloud.CodeThrottled, Retryable: true, Message: "TooManyRequests"}
	f.errs = []error{throttle}
	rt := New(f, opts)
	ctx := context.Background()

	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(ctx, "aws_vpc", "vpc-1"); err != nil {
		t.Fatal(err)
	}
	if reg.CounterSum("provider.retries") != 1 {
		t.Errorf("provider.retries = %d, want 1", reg.CounterSum("provider.retries"))
	}
	if reg.CounterSum("provider.cache_hits") != 1 {
		t.Errorf("provider.cache_hits = %d, want 1", reg.CounterSum("provider.cache_hits"))
	}
}

func TestConcurrentMixedTrafficRace(t *testing.T) {
	// Hammer one runtime from many goroutines doing reads, writes, and
	// activity observation; -race is the assertion.
	f := newFakeCloud()
	f.put("aws_vpc", "vpc-1", "us-east-1")
	rt := New(f, Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	var seq atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				switch j % 5 {
				case 0:
					_, _ = rt.Get(ctx, "aws_vpc", "vpc-1")
				case 1:
					_, _ = rt.List(ctx, "aws_vpc", "")
				case 2:
					_, _ = rt.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: "vpc-1",
						Attrs: map[string]eval.Value{"name": eval.String("x")}})
				case 3:
					rt.observeEvents(context.Background(), []cloud.Event{{Seq: seq.Add(1), Type: "aws_vpc", ID: "vpc-1"}})
				case 4:
					_, _ = rt.Get(WithFresh(ctx), "aws_vpc", "vpc-1")
				}
			}
		}(i)
	}
	wg.Wait()
}
