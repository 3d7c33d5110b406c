package reconcile

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/events"
	"cloudless/internal/state"
	"cloudless/internal/telemetry"
)

// The tests run the controller's own loops on a telemetry.VirtualClock. The
// converge loop is the only goroutine that waits on the clock, so the
// driver knows where it stands by counting pending clock waits: a wake-up
// (an event, or time moved past its deadline) ends with the loop parked on
// exactly one new After. Nothing here sleeps or polls the wall clock.

// fakeCloud is an in-memory activity log. Its long poll returns as soon as
// events land and otherwise blocks until the controller stops (it ignores
// the poll bound), so the activity loop never waits on the clock.
type fakeCloud struct {
	cloud.Interface // nil: the controller calls nothing else

	mu   sync.Mutex
	evs  []cloud.Event
	wake chan struct{}
	gate chan struct{} // non-nil: long polls wait for it to close
}

func newFakeCloud() *fakeCloud { return &fakeCloud{wake: make(chan struct{}, 1)} }

// emit appends events to the log in one step, so the controller ingests
// them as one batch.
func (f *fakeCloud) emit(evs ...cloud.Event) {
	f.mu.Lock()
	for _, e := range evs {
		e.Seq = int64(len(f.evs) + 1)
		f.evs = append(f.evs, e)
	}
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// hold makes long polls wait until release.
func (f *fakeCloud) hold() {
	f.mu.Lock()
	f.gate = make(chan struct{})
	f.mu.Unlock()
}

func (f *fakeCloud) release() {
	f.mu.Lock()
	close(f.gate)
	f.gate = nil
	f.mu.Unlock()
}

func (f *fakeCloud) Activity(_ context.Context, afterSeq int64) ([]cloud.Event, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []cloud.Event
	for _, e := range f.evs {
		if e.Seq > afterSeq {
			out = append(out, e)
		}
	}
	return out, nil
}

func (f *fakeCloud) WaitActivity(ctx context.Context, afterSeq int64, _ time.Duration) ([]cloud.Event, error) {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-gate:
		}
	}
	for {
		evs, err := f.Activity(ctx, afterSeq)
		if err != nil || len(evs) > 0 {
			return evs, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-f.wake:
		}
	}
}

// harness fakes the workspace side: a golden state, a mutable drifted set,
// and Verify/FullScan/Repair hooks backed by it.
type harness struct {
	t     *testing.T
	clk   *telemetry.VirtualClock
	cloud *fakeCloud
	bus   *events.Bus
	reg   *telemetry.Registry
	snap  *state.State

	mu        sync.Mutex
	acked     *sync.Cond
	drifted   map[string]drift.Item
	repairErr error // returned by Repair (nil = success)
	repairFix bool  // whether Repair actually clears the drift
	verified  [][]string
	repairs   int
	acks      []int64
}

func newHarness(t *testing.T) *harness {
	h := &harness{
		t: t, clk: telemetry.NewVirtualClock(time.Unix(1_000_000, 0), 0),
		cloud: newFakeCloud(), bus: events.NewBus(nil),
		reg: telemetry.NewRegistry(), snap: state.New(),
		drifted: map[string]drift.Item{}, repairFix: true,
	}
	h.acked = sync.NewCond(&h.mu)
	t.Cleanup(h.bus.Close)
	return h
}

// manage registers a managed resource in the golden state.
func (h *harness) manage(addr, typ, id string) {
	h.snap.Set(&state.ResourceState{Addr: addr, Type: typ, ID: id, Region: "r1"})
}

// intrude marks addresses as actually drifted in the fake cloud and emits
// the matching foreign activity in one batch.
func (h *harness) intrude(kind drift.Kind, addrs ...string) {
	var evs []cloud.Event
	h.mu.Lock()
	for _, addr := range addrs {
		id := h.snap.Get(addr).ID
		h.drifted[addr] = drift.Item{Kind: kind, Addr: addr, ID: id, Actor: "intruder"}
		op := cloud.OpUpdate
		if kind == drift.Deleted {
			op = cloud.OpDelete
		}
		evs = append(evs, cloud.Event{Op: op, ID: id, Principal: "intruder", Time: h.clk.Now()})
	}
	h.mu.Unlock()
	h.cloud.emit(evs...)
}

// drift is one foreign update of one address.
func (h *harness) drift(addr string) { h.intrude(drift.Modified, addr) }

func (h *harness) config(mode string) Config {
	return Config{
		Name: "test", Principal: "us", Cloud: h.cloud, Bus: h.bus, Registry: h.reg,
		Snapshot: func() *state.State { return h.snap },
		Verify: func(ctx context.Context, addrs []string) (*drift.Report, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.verified = append(h.verified, addrs)
			rep := &drift.Report{Method: "scoped", BaseSerial: 1}
			for _, a := range addrs {
				if it, ok := h.drifted[a]; ok {
					rep.Items = append(rep.Items, it)
					// Like the workspace's scoped scan, announce what it found.
					events.FromContext(ctx).Publish(events.Event{Kind: "drift.detected", Addr: a, Wave: "scoped"})
				}
			}
			return rep, nil
		},
		FullScan: func(context.Context) (*drift.Report, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			rep := &drift.Report{Method: "full-scan", BaseSerial: 1}
			for _, it := range h.drifted {
				rep.Items = append(rep.Items, it)
			}
			return rep, nil
		},
		Repair: func(_ context.Context, rep *drift.Report) (*RepairOutcome, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.repairs++
			if h.repairErr != nil {
				return &RepairOutcome{}, h.repairErr
			}
			out := &RepairOutcome{}
			for _, it := range rep.Items {
				if h.repairFix {
					delete(h.drifted, it.Addr)
					out.Applied++
				}
			}
			return out, nil
		},
		OnCheckpoint: func(wm int64) {
			h.mu.Lock()
			h.acks = append(h.acks, wm)
			h.acked.Broadcast()
			h.mu.Unlock()
		},
		Mode:          mode,
		FullScanEvery: -1,
		Clock:         h.clk,
	}
}

// start starts the controller and returns once its converge loop is parked.
func (h *harness) start(cfg Config) *Controller {
	c, err := Start(cfg)
	if err != nil {
		h.t.Fatalf("Start: %v", err)
	}
	h.t.Cleanup(func() { stop(h.t, c) })
	h.clk.BlockUntil(1)
	return c
}

func stop(t *testing.T, c *Controller) {
	if err := c.Stop(context.Background()); err != nil {
		t.Errorf("Stop: %v", err)
	}
}

// kicked runs an action that wakes the controller, lets the debounce run
// out, and returns once the round it triggered is done and the converge
// loop is parked again.
func (h *harness) kicked(action func()) {
	n := h.clk.Waiters()
	action()
	h.clk.BlockUntil(n + 1) // the debounce wait
	h.advance(Debounce)
}

// advance moves virtual time by d, which must reach the converge loop's
// pending deadline, and returns once the round it wakes is done and the
// loop is parked again.
func (h *harness) advance(d time.Duration) {
	h.clk.BlockUntil(h.clk.Advance(d) + 1)
}

// waitAck blocks until the controller has checkpointed watermark wm.
func (h *harness) waitAck(wm int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.acks) == 0 || h.acks[len(h.acks)-1] < wm {
		h.acked.Wait()
	}
}

func (h *harness) counts() (verifies, repairs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.verified), h.repairs
}

// counters are the Status fields the tests pin exactly.
type counters struct {
	Detected, Repaired, RepairFailures, Suppressed, BreakerTrips, ScopedScans, FullScans int64
}

func countersOf(st Status) counters {
	return counters{st.Detected, st.Repaired, st.RepairFailures, st.Suppressed,
		st.BreakerTrips, st.ScopedScans, st.FullScans}
}

// wantStatus compares the controller's counters with the wanted ones.
func wantStatus(t *testing.T, c *Controller, want counters) {
	t.Helper()
	if got := countersOf(c.Status()); got != want {
		t.Fatalf("counters = %+v\nwant       %+v", got, want)
	}
}

// TestEventDrivenRepair is the happy path: a foreign activity event maps to
// a managed address, a scoped verify confirms drift, the guarded repair
// fixes it, and the durable watermark advances past the event.
func TestEventDrivenRepair(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	c := h.start(h.config(ModeRepair))

	h.kicked(func() { h.drift("aws_vpc.main") })
	wantStatus(t, c, counters{Detected: 1, Repaired: 1, ScopedScans: 2})
	st := c.Status()
	if len(st.Addrs) != 1 || st.Addrs[0].State != "ok" || st.Addrs[0].Repairs != 1 {
		t.Fatalf("addr status: %+v", st.Addrs)
	}
	if len(h.drifted) != 0 {
		t.Fatalf("drift not actually repaired")
	}
	if c.Watermark() != 1 || h.acks[len(h.acks)-1] != 1 {
		t.Fatalf("watermark = %d, checkpoints %v; want 1", c.Watermark(), h.acks)
	}
	if got := h.reg.CounterSum("reconcile.repaired"); got != 1 {
		t.Fatalf("reconcile.repaired = %d", got)
	}
}

// TestOwnActivityIgnored: events by our own principal are not drift and the
// watermark acks them without any verification.
func TestOwnActivityIgnored(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	c := h.start(h.config(ModeRepair))

	h.cloud.emit(cloud.Event{Op: cloud.OpUpdate, ID: "vpc-1", Principal: "us"})
	h.waitAck(1)
	h.advance(time.Minute)
	if v, _ := h.counts(); v != 0 || c.Watermark() != 1 {
		t.Fatalf("own activity: %d verifies, watermark %d", v, c.Watermark())
	}
}

// TestDetectModeNeverRepairs: ModeDetect surfaces drift but the Repair hook
// is never consulted, and the address stays drifted (pinning the watermark)
// and is re-verified once a minute.
func TestDetectModeNeverRepairs(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	cfg := h.config(ModeDetect)
	cfg.Repair = nil // legal in detect mode
	c := h.start(cfg)

	h.kicked(func() { h.drift("aws_vpc.main") })
	h.advance(time.Minute)
	wantStatus(t, c, counters{Detected: 1, ScopedScans: 2})
	st := c.Status()
	if !st.DetectOnly || st.Addrs[0].State != "drifted" {
		t.Fatalf("status: %+v", st)
	}
	if c.Watermark() != 0 {
		t.Fatalf("watermark advanced past unresolved drift: %d", c.Watermark())
	}
	if _, r := h.counts(); r != 0 {
		t.Fatalf("detect mode called Repair %d times", r)
	}
}

// TestBackoffAndBreaker: repairs that never stick push the address into
// exponential backoff (1 s, then 2 s) and, after BreakerThreshold
// consecutive all-fail rounds, trip the circuit breaker into detect-only.
// The open breaker holds the address until the cooloff ends, even where its
// own backoff ends first, and the half-open trial closes it.
func TestBackoffAndBreaker(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	h.repairFix = false // repairs "succeed" but the drift persists
	c := h.start(h.config(ModeRepair))

	h.kicked(func() { h.drift("aws_vpc.main") })
	wantStatus(t, c, counters{Detected: 1, RepairFailures: 1, ScopedScans: 2})
	if ms := c.Status().Addrs[0].RetryInMs; ms != 1000 {
		t.Fatalf("first backoff = %vms, want 1000", ms)
	}
	h.advance(BackoffBase)
	wantStatus(t, c, counters{Detected: 1, RepairFailures: 2, ScopedScans: 4})
	h.advance(2 * BackoffBase)
	wantStatus(t, c, counters{Detected: 1, RepairFailures: 3, BreakerTrips: 1, ScopedScans: 6})
	st := c.Status()
	if !st.BreakerOpen || !st.DetectOnly || st.Addrs[0].Failures != 3 || st.Addrs[0].LastError == "" {
		t.Fatalf("breaker should be open: %+v", st)
	}
	if c.Watermark() != 0 {
		t.Fatalf("watermark = %d, want 0 while drift is unresolved", c.Watermark())
	}

	// The third backoff (4 s) ends inside the cooloff: nothing may wake.
	pending := h.clk.Waiters()
	if left := h.clk.Advance(4 * BackoffBase); left != pending {
		t.Fatalf("a wait fired inside the breaker cooloff (%d pending, was %d)", left, pending)
	}

	// Heal the cause; the cooloff ends, the half-open trial repairs, and
	// the breaker closes.
	h.mu.Lock()
	h.repairFix = true
	h.mu.Unlock()
	h.advance(BreakerCooloff - 4*BackoffBase)
	wantStatus(t, c, counters{Detected: 1, Repaired: 1, RepairFailures: 3, BreakerTrips: 1, ScopedScans: 8})
	if c.Status().BreakerOpen || c.Watermark() != 1 {
		t.Fatalf("after recovery: %+v", c.Status())
	}
	if got := h.reg.CounterSum("reconcile.breaker_trips"); got != 1 {
		t.Fatalf("reconcile.breaker_trips = %d", got)
	}
}

// TestFlapSuppression: an address that keeps re-drifting after successful
// repairs is suppressed (surfaced, not hammered) and released after the flap
// window with a clean slate.
func TestFlapSuppression(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	c := h.start(h.config(ModeRepair))

	for i := 0; i < FlapThreshold; i++ {
		h.kicked(func() { h.drift("aws_vpc.main") })
	}
	wantStatus(t, c, counters{Detected: 3, Repaired: 3, ScopedScans: 6})
	// The next recurrence inside the window is suppressed, not repaired...
	h.kicked(func() { h.drift("aws_vpc.main") })
	wantStatus(t, c, counters{Detected: 4, Repaired: 3, Suppressed: 1, ScopedScans: 7})
	st := c.Status()
	if st.Addrs[0].State != "suppressed" || st.Addrs[0].SuppressMs != float64(FlapWindow/time.Millisecond) {
		t.Fatalf("addr: %+v", st.Addrs[0])
	}
	// ...and surfaced, not missed: the watermark is released.
	if c.Watermark() != 4 {
		t.Fatalf("watermark = %d, want 4", c.Watermark())
	}
	// Once the window passes, the address gets a fresh chance.
	h.advance(FlapWindow)
	wantStatus(t, c, counters{Detected: 4, Repaired: 4, Suppressed: 1, ScopedScans: 9})
}

// TestDroppedBusEventsTriggerCatchUpFullScan: overflowing the controller's
// drift.detected subscription must be detected as a gap — counted in
// telemetry — and answered with a catch-up FullScan, because dropped events
// are silently missed drift.
func TestDroppedBusEventsTriggerCatchUpFullScan(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	c := h.start(h.config(ModeRepair))

	// The bus loop needs the controller's lock to take events in, so while
	// it is held a burst overflows the subscription.
	h.kicked(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < events.DefaultBuffer+50; i++ {
			h.bus.Publish(events.Event{Kind: "drift.detected", Addr: "aws_vpc.other", Action: "modified"})
		}
	})
	wantStatus(t, c, counters{FullScans: 1, ScopedScans: 1})
	if st := c.Status(); st.EventsDropped < 49 {
		t.Fatalf("EventsDropped = %d, want >= 49", st.EventsDropped)
	}
	if got := h.reg.CounterSum("reconcile.events_dropped"); got < 49 {
		t.Fatalf("reconcile.events_dropped = %d", got)
	}
	if got := h.reg.CounterSum("reconcile.full_scans"); got != 1 {
		t.Fatalf("reconcile.full_scans = %d", got)
	}
}

// TestBusDriftFeedsConvergeLoop: a drift.detected event from a one-shot
// drift job (not the activity stream) is verified and repaired, while the
// controller's own scoped-wave detections are not fed back (no self-chase).
func TestBusDriftFeedsConvergeLoop(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	c := h.start(h.config(ModeRepair))

	h.mu.Lock()
	h.drifted["aws_vpc.main"] = drift.Item{Kind: drift.Modified, Addr: "aws_vpc.main", ID: "vpc-1", Actor: "intruder"}
	h.mu.Unlock()
	// As published by a one-shot drift job (Wave "poll"/"scan", not "scoped").
	h.kicked(func() {
		h.bus.Publish(events.Event{Kind: "drift.detected", Addr: "aws_vpc.main", Action: "modified", Wave: "poll", Principal: "intruder"})
	})
	wantStatus(t, c, counters{Detected: 1, Repaired: 1, ScopedScans: 2})
	// The repair's verify published a scoped drift.detected. The bus loop
	// takes events in order, so once a later report has been verified, a
	// fed-back scoped event would have put aws_vpc.main in the same batch.
	h.kicked(func() {
		h.bus.Publish(events.Event{Kind: "drift.detected", Addr: "aws_vpc.other", Action: "modified", Wave: "poll"})
	})
	if last := h.verified[len(h.verified)-1]; !reflect.DeepEqual(last, []string{"aws_vpc.other"}) {
		t.Fatalf("self-feedback: last verify batch = %v", last)
	}
	wantStatus(t, c, counters{Detected: 1, Repaired: 1, ScopedScans: 3})
}

// TestPeriodicFullScanSafetyNet: with no events at all, the periodic
// FullScan (DefaultFullScanEvery when Config leaves it 0) still finds drift,
// e.g. from an actor bypassing the activity log, and routes it through
// repair.
func TestPeriodicFullScanSafetyNet(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	cfg := h.config(ModeRepair)
	cfg.FullScanEvery = 0
	c := h.start(cfg)

	// Drift with no activity event (invisible to the event path).
	h.mu.Lock()
	h.drifted["aws_vpc.main"] = drift.Item{Kind: drift.Modified, Addr: "aws_vpc.main", ID: "vpc-1"}
	h.mu.Unlock()

	h.advance(DefaultFullScanEvery - time.Minute)
	wantStatus(t, c, counters{})
	h.advance(time.Minute)
	wantStatus(t, c, counters{Detected: 1, Repaired: 1, ScopedScans: 2, FullScans: 1})
}

// TestStaleRepairReVerifies: a Repair returning drift.ErrStaleReport (the
// golden state moved underneath) is not a failure — the controller re-runs
// the verify/repair cycle against the fresh baseline a BackoffBase later.
func TestStaleRepairReVerifies(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	h.repairErr = &drift.ErrStaleReport{ReportSerial: 1, CurrentSerial: 2}
	c := h.start(h.config(ModeRepair))

	h.kicked(func() { h.drift("aws_vpc.main") })
	h.advance(BackoffBase)
	if _, r := h.counts(); r != 2 {
		t.Fatalf("repairs = %d, want 2", r)
	}
	wantStatus(t, c, counters{Detected: 1, ScopedScans: 2})
	// Once the baseline settles the repair goes through.
	h.mu.Lock()
	h.repairErr = nil
	h.mu.Unlock()
	h.advance(BackoffBase)
	wantStatus(t, c, counters{Detected: 1, Repaired: 1, ScopedScans: 4})
}

// TestResumeFromWatermark: a controller restarted with the previous life's
// acknowledged watermark re-verifies events past it and skips everything
// before it — no duplicate repairs, no missed drift.
func TestResumeFromWatermark(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.a", "aws_vpc", "vpc-a")
	h.manage("aws_vpc.b", "aws_vpc", "vpc-b")

	c := h.start(h.config(ModeRepair))
	h.kicked(func() { h.drift("aws_vpc.a") }) // seq 1: repaired by the first life
	if c.Watermark() != 1 {
		t.Fatalf("first-life watermark = %d, want 1", c.Watermark())
	}
	stop(t, c)

	// While "down": new foreign drift lands at seq 2.
	h.drift("aws_vpc.b")

	// Second life: same cloud, golden state and drifted set, fresh clock
	// and counters. The activity backlog is held until the converge loop
	// has parked, so the resume takes the same path every run.
	h2 := newHarness(t)
	h2.cloud, h2.snap, h2.drifted = h.cloud, h.snap, h.drifted
	cfg := h2.config(ModeRepair)
	cfg.Watermark = 1 // resume from the journaled ack
	h2.cloud.hold()
	c2 := h2.start(cfg)
	h2.kicked(h2.cloud.release)
	wantStatus(t, c2, counters{Detected: 1, Repaired: 1, ScopedScans: 2})
	// The second life never re-repaired the first life's address: only one
	// address ever entered its state table.
	st := c2.Status()
	if len(st.Addrs) != 1 || st.Addrs[0].Addr != "aws_vpc.b" || c2.Watermark() != 2 {
		t.Fatalf("resume replayed acked history: %+v", st)
	}
}

// TestFreshEnableAnchorsAtTail: Watermark -1 (operator enable) starts at the
// activity-log tail — pre-existing history is not treated as missed drift.
func TestFreshEnableAnchorsAtTail(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	h.cloud.emit(cloud.Event{Op: cloud.OpUpdate, ID: "vpc-1", Principal: "old-intruder"},
		cloud.Event{Op: cloud.OpUpdate, ID: "vpc-1", Principal: "old-intruder"})

	cfg := h.config(ModeRepair)
	cfg.Watermark = -1
	c := h.start(cfg)
	if c.Watermark() != 2 {
		t.Fatalf("fresh enable watermark = %d, want 2 (log tail)", c.Watermark())
	}
	h.advance(time.Minute)
	if v, _ := h.counts(); v != 0 {
		t.Fatalf("fresh enable replayed history: %d verifies", v)
	}
}

// runStorm drives one seeded storm: bursts of foreign updates and deletes
// over five addresses, repair faults switched on and off, and quiet minutes,
// all on virtual time. The seed alone decides what happens.
func runStorm(t *testing.T, seed uint64) counters {
	h := newHarness(t)
	addrs := []string{"aws_vpc.a", "aws_vpc.b", "aws_vpc.c", "aws_vpc.d", "aws_vpc.e"}
	for i, addr := range addrs {
		h.manage(addr, "aws_vpc", "vpc-"+string(rune('a'+i)))
	}
	c := h.start(h.config(ModeRepair))
	rng := rand.New(rand.NewPCG(seed, seed))
	fault := errors.New("injected repair fault")
	for step := 0; step < 80; step++ {
		switch r := rng.IntN(10); {
		case r < 6:
			kind := drift.Modified
			if rng.IntN(4) == 0 {
				kind = drift.Deleted
			}
			burst := make([]string, 1+rng.IntN(2))
			for i := range burst {
				// Skewed towards the first addresses, so some flap.
				burst[i] = addrs[min(rng.IntN(len(addrs)), rng.IntN(len(addrs)))]
			}
			h.kicked(func() { h.intrude(kind, burst...) })
		case r < 8:
			h.mu.Lock()
			if h.repairErr == nil {
				h.repairErr = fault
			} else {
				h.repairErr = nil
			}
			h.mu.Unlock()
		default:
			h.advance(time.Minute)
		}
	}
	stop(t, c)
	return countersOf(c.Status())
}

// TestSeededStorm replays seeded storms and pins exactly what the
// controller did: every run of a seed must give the same counts.
func TestSeededStorm(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want counters
	}{
		{1, counters{Detected: 40, Repaired: 36, RepairFailures: 29, Suppressed: 2, BreakerTrips: 3, ScopedScans: 101}},
		{2, counters{Detected: 51, Repaired: 51, RepairFailures: 11, Suppressed: 1, ScopedScans: 86}},
		{3, counters{Detected: 60, Repaired: 60, RepairFailures: 8, Suppressed: 2, BreakerTrips: 1, ScopedScans: 109}},
	} {
		for run := 1; run <= 2; run++ {
			if got := runStorm(t, tc.seed); got != tc.want {
				t.Errorf("seed %d, run %d: got %+v, want %+v", tc.seed, run, got, tc.want)
			}
		}
	}
}

// TestBackoffHelper pins the capped exponential schedule.
func TestBackoffHelper(t *testing.T) {
	base, max := time.Second, 10*time.Second
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second}
	for i, w := range want {
		if got := backoff(base, max, i+1); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}
