package reconcile

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/events"
	"cloudless/internal/state"
	"cloudless/internal/telemetry"
)

// fakeCloud is an in-memory activity log whose long poll wakes on emit, so
// tests wake the controller instantly.
type fakeCloud struct {
	cloud.Interface // nil: the controller calls nothing else

	mu   sync.Mutex
	evs  []cloud.Event
	wake chan struct{}
}

func newFakeCloud() *fakeCloud { return &fakeCloud{wake: make(chan struct{}, 1)} }

func (f *fakeCloud) emit(e cloud.Event) {
	f.mu.Lock()
	e.Seq = int64(len(f.evs) + 1)
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	f.evs = append(f.evs, e)
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
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

func (f *fakeCloud) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]cloud.Event, error) {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		evs, err := f.Activity(ctx, afterSeq)
		if err != nil || len(evs) > 0 {
			return evs, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, nil
		case <-f.wake:
		}
	}
}

// harness fakes the workspace side: a golden state, a mutable drifted set,
// and Verify/FullScan/Repair hooks backed by it.
type harness struct {
	t     *testing.T
	cloud *fakeCloud
	bus   *events.Bus
	reg   *telemetry.Registry
	snap  *state.State

	mu        sync.Mutex
	drifted   map[string]drift.Item
	repairErr error // returned by Repair (nil = success)
	repairFix bool  // whether Repair actually clears the drift
	verifies  int
	fulls     int
	repairs   int
}

func newHarness(t *testing.T) *harness {
	h := &harness{
		t: t, cloud: newFakeCloud(), bus: events.NewBus(nil),
		reg: telemetry.NewRegistry(), snap: state.New(),
		drifted: map[string]drift.Item{}, repairFix: true,
	}
	t.Cleanup(h.bus.Close)
	return h
}

// manage registers a managed resource in the golden state.
func (h *harness) manage(addr, typ, id string) {
	h.snap.Set(&state.ResourceState{Addr: addr, Type: typ, ID: id, Region: "r1"})
}

// drift marks an address as actually drifted in the fake cloud and emits the
// corresponding foreign activity event.
func (h *harness) drift(addr, id string) {
	h.mu.Lock()
	h.drifted[addr] = drift.Item{Kind: drift.Modified, Addr: addr, ID: id, Actor: "intruder"}
	h.mu.Unlock()
	h.cloud.emit(cloud.Event{Op: cloud.OpUpdate, ID: id, Principal: "intruder"})
}

func (h *harness) config(mode string) Config {
	return Config{
		Name: "test", Principal: "us", Cloud: h.cloud, Bus: h.bus, Registry: h.reg,
		Snapshot: func() *state.State { return h.snap },
		Verify: func(_ context.Context, addrs []string) (*drift.Report, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.verifies++
			rep := &drift.Report{Method: "scoped", BaseSerial: 1}
			for _, a := range addrs {
				if it, ok := h.drifted[a]; ok {
					rep.Items = append(rep.Items, it)
				}
			}
			return rep, nil
		},
		FullScan: func(context.Context) (*drift.Report, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.fulls++
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
		Mode: mode,
		// Fast knobs: the converge loop settles in tens of milliseconds.
		Tuning: Tuning{
			Debounce: time.Millisecond, PollWait: 50 * time.Millisecond,
			FullScanEvery: -1, BackoffBase: 5 * time.Millisecond,
			BackoffMax: 20 * time.Millisecond, FlapWindow: time.Minute,
			FlapThreshold: 3, BreakerThreshold: 2, BreakerCooloff: 50 * time.Millisecond,
		},
	}
}

func (h *harness) start(cfg Config) *Controller {
	c, err := Start(cfg)
	if err != nil {
		h.t.Fatalf("Start: %v", err)
	}
	h.t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Stop(ctx)
	})
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestEventDrivenRepair is the happy path: a foreign activity event maps to
// a managed address, a scoped verify confirms drift, the guarded repair
// fixes it, and the durable watermark advances past the event.
func TestEventDrivenRepair(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")

	var mu sync.Mutex
	var checkpoints []int64
	cfg := h.config(ModeRepair)
	cfg.OnCheckpoint = func(wm int64) {
		mu.Lock()
		checkpoints = append(checkpoints, wm)
		mu.Unlock()
	}
	c := h.start(cfg)

	h.drift("aws_vpc.main", "vpc-1")
	waitFor(t, "repair", func() bool { return c.Status().Repaired == 1 })
	waitFor(t, "watermark ack", func() bool { return c.Watermark() == 1 })

	st := c.Status()
	if st.Detected != 1 || st.RepairFailures != 0 {
		t.Fatalf("counters: %+v", st)
	}
	if len(st.Addrs) != 1 || st.Addrs[0].State != "ok" || st.Addrs[0].Repairs != 1 {
		t.Fatalf("addr status: %+v", st.Addrs)
	}
	h.mu.Lock()
	left := len(h.drifted)
	h.mu.Unlock()
	if left != 0 {
		t.Fatalf("drift not actually repaired")
	}
	mu.Lock()
	last := checkpoints[len(checkpoints)-1]
	mu.Unlock()
	if last != 1 {
		t.Fatalf("checkpoint watermark = %d, want 1", last)
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
	waitFor(t, "own event acked", func() bool { return c.Watermark() == 1 })
	h.mu.Lock()
	verifies := h.verifies
	h.mu.Unlock()
	if verifies != 0 {
		t.Fatalf("own activity triggered %d verifies", verifies)
	}
}

// TestDetectModeNeverRepairs: ModeDetect surfaces drift but the Repair hook
// is never consulted, and the address stays drifted (pinning the watermark).
func TestDetectModeNeverRepairs(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	cfg := h.config(ModeDetect)
	cfg.Repair = nil // legal in detect mode
	c := h.start(cfg)

	h.drift("aws_vpc.main", "vpc-1")
	waitFor(t, "detection", func() bool { return c.Status().Detected == 1 })
	st := c.Status()
	if !st.DetectOnly || st.Repaired != 0 {
		t.Fatalf("status: %+v", st)
	}
	if st.Addrs[0].State != "drifted" {
		t.Fatalf("addr state = %q, want drifted", st.Addrs[0].State)
	}
	if c.Watermark() != 0 {
		t.Fatalf("watermark advanced past unresolved drift: %d", c.Watermark())
	}
	h.mu.Lock()
	repairs := h.repairs
	h.mu.Unlock()
	if repairs != 0 {
		t.Fatalf("detect mode called Repair %d times", repairs)
	}
}

// TestBackoffAndBreaker: repairs that never stick push the address into
// exponential backoff and, after BreakerThreshold consecutive all-fail
// rounds, trip the circuit breaker into detect-only.
func TestBackoffAndBreaker(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	h.repairFix = false // repairs "succeed" but the drift persists
	c := h.start(h.config(ModeRepair))

	h.drift("aws_vpc.main", "vpc-1")
	waitFor(t, "breaker trip", func() bool { return c.Status().BreakerTrips >= 1 })
	st := c.Status()
	if !st.BreakerOpen || !st.DetectOnly {
		t.Fatalf("breaker should be open: %+v", st)
	}
	if st.RepairFailures < 2 {
		t.Fatalf("RepairFailures = %d, want >= 2", st.RepairFailures)
	}
	if st.Addrs[0].Failures < 2 || st.Addrs[0].LastError == "" {
		t.Fatalf("addr: %+v", st.Addrs[0])
	}
	// The unresolved address keeps pinning the durable watermark.
	if c.Watermark() != 0 {
		t.Fatalf("watermark = %d, want 0 while drift is unresolved", c.Watermark())
	}

	// Heal the cause; after the cooloff the breaker half-opens, the trial
	// repair succeeds, and the breaker closes.
	h.mu.Lock()
	h.repairFix = true
	h.mu.Unlock()
	waitFor(t, "breaker close + repair", func() bool {
		st := c.Status()
		return !st.BreakerOpen && st.Repaired >= 1
	})
	waitFor(t, "watermark after recovery", func() bool { return c.Watermark() == 1 })
	if got := h.reg.CounterSum("reconcile.breaker_trips"); got < 1 {
		t.Fatalf("reconcile.breaker_trips = %d", got)
	}
}

// TestFlapSuppression: an address that keeps re-drifting after successful
// repairs is suppressed (surfaced, not hammered) and released after the flap
// window with a clean slate.
func TestFlapSuppression(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	cfg := h.config(ModeRepair)
	cfg.Tuning.FlapThreshold = 2
	cfg.Tuning.FlapWindow = 30 * time.Second // long: suppression visible
	c := h.start(cfg)

	// Two successful repairs inside the window...
	for i := 0; i < 2; i++ {
		h.drift("aws_vpc.main", "vpc-1")
		want := int64(i + 1)
		waitFor(t, fmt.Sprintf("repair %d", i+1), func() bool { return c.Status().Repaired == want })
	}
	// ...then the third recurrence is suppressed instead of repaired.
	h.drift("aws_vpc.main", "vpc-1")
	waitFor(t, "suppression", func() bool { return c.Status().Suppressed == 1 })
	st := c.Status()
	if st.Addrs[0].State != "suppressed" || st.Addrs[0].SuppressMs <= 0 {
		t.Fatalf("addr: %+v", st.Addrs[0])
	}
	if st.Repaired != 2 {
		t.Fatalf("suppressed addr was repaired anyway: %+v", st)
	}
	// Suppressed means surfaced, not missed: the watermark is released.
	waitFor(t, "watermark released", func() bool { return c.Watermark() == 3 })
}

// TestDroppedBusEventsTriggerCatchUpFullScan (satellite: events.Subscription
// Dropped surfacing): overflowing the controller's drift.detected
// subscription must be detected as a gap — counted in telemetry — and
// answered with a catch-up FullScan, because dropped events are silently
// missed drift.
func TestDroppedBusEventsTriggerCatchUpFullScan(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	cfg := h.config(ModeRepair)
	cfg.Tuning.BusBuffer = 1 // tiny buffer: a burst must overflow
	c := h.start(cfg)

	// A synchronous burst against a 1-slot buffer: the busLoop cannot drain
	// fast enough, so the bus evicts and counts drops.
	for i := 0; i < 500; i++ {
		h.bus.Publish(events.Event{Kind: "drift.detected", Addr: "aws_vpc.other", Action: "modified"})
	}
	waitFor(t, "gap detected", func() bool { return c.Status().EventsDropped > 0 })
	waitFor(t, "catch-up full scan", func() bool { return c.Status().FullScans >= 1 })
	if got := h.reg.CounterSum("reconcile.events_dropped"); got == 0 {
		t.Fatalf("reconcile.events_dropped counter not incremented")
	}
	if got := h.reg.CounterSum("reconcile.full_scans"); got == 0 {
		t.Fatalf("reconcile.full_scans counter not incremented")
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
	h.bus.Publish(events.Event{Kind: "drift.detected", Addr: "aws_vpc.main", Action: "modified", Wave: "poll", Principal: "intruder"})

	waitFor(t, "bus-fed repair", func() bool { return c.Status().Repaired == 1 })
	// The repair's own confirmation scans published scoped drift.detected
	// events; none may have re-dirtied the loop.
	time.Sleep(20 * time.Millisecond)
	if st := c.Status(); st.Repaired != 1 || st.Detected != 1 {
		t.Fatalf("self-feedback: %+v", st)
	}
}

// TestPeriodicFullScanSafetyNet: with no events at all, the periodic
// FullScan still finds drift (e.g. from an actor bypassing the activity
// log) and routes it through repair.
func TestPeriodicFullScanSafetyNet(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	cfg := h.config(ModeRepair)
	cfg.Tuning.FullScanEvery = 20 * time.Millisecond
	c := h.start(cfg)

	// Drift with no activity event (invisible to the event path).
	h.mu.Lock()
	h.drifted["aws_vpc.main"] = drift.Item{Kind: drift.Modified, Addr: "aws_vpc.main", ID: "vpc-1"}
	h.mu.Unlock()

	waitFor(t, "safety-net repair", func() bool { return c.Status().Repaired == 1 })
	if st := c.Status(); st.FullScans < 1 {
		t.Fatalf("no full scan ran: %+v", st)
	}
}

// TestStaleRepairReVerifies: a Repair returning drift.ErrStaleReport (the
// golden state moved underneath) is not a failure — the controller re-runs
// the verify/repair cycle against the fresh baseline.
func TestStaleRepairReVerifies(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	h.repairErr = &drift.ErrStaleReport{ReportSerial: 1, CurrentSerial: 2}
	c := h.start(h.config(ModeRepair))

	h.drift("aws_vpc.main", "vpc-1")
	waitFor(t, "stale retries", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.repairs >= 2
	})
	if st := c.Status(); st.RepairFailures != 0 || st.BreakerTrips != 0 {
		t.Fatalf("stale report counted as failure: %+v", st)
	}
	// Once the baseline settles the repair goes through.
	h.mu.Lock()
	h.repairErr = nil
	h.mu.Unlock()
	waitFor(t, "repair after stale", func() bool { return c.Status().Repaired == 1 })
}

// TestResumeFromWatermark: a controller restarted with the previous life's
// acknowledged watermark re-verifies events past it and skips everything
// before it — no duplicate repairs, no missed drift.
func TestResumeFromWatermark(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.a", "aws_vpc", "vpc-a")
	h.manage("aws_vpc.b", "aws_vpc", "vpc-b")

	c := h.start(h.config(ModeRepair))
	h.drift("aws_vpc.a", "vpc-a") // seq 1: repaired by the first life
	waitFor(t, "first-life repair", func() bool { return c.Status().Repaired == 1 })
	waitFor(t, "first-life ack", func() bool { return c.Watermark() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = c.Stop(ctx)
	cancel()

	// While "down": new foreign drift lands at seq 2.
	h.drift("aws_vpc.b", "vpc-b")

	// Second life: same cloud, golden state and drifted set, fresh counters.
	h2 := &harness{
		t: t, cloud: h.cloud, bus: events.NewBus(nil), reg: telemetry.NewRegistry(),
		snap: h.snap, drifted: h.drifted, repairFix: true,
	}
	defer h2.bus.Close()
	cfg := h2.config(ModeRepair)
	cfg.Watermark = 1 // resume from the journaled ack
	c2, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c2.Stop(ctx)
	}()
	waitFor(t, "second-life repair", func() bool { return c2.Status().Repaired == 1 })
	waitFor(t, "second-life ack", func() bool { return c2.Watermark() == 2 })
	// The second life never re-repaired the first life's address: only one
	// address ever entered its state table.
	st := c2.Status()
	if len(st.Addrs) != 1 || st.Addrs[0].Addr != "aws_vpc.b" {
		t.Fatalf("resume replayed acked history: %+v", st.Addrs)
	}
}

// TestFreshEnableAnchorsAtTail: Watermark -1 (operator enable) starts at the
// activity-log tail — pre-existing history is not treated as missed drift.
func TestFreshEnableAnchorsAtTail(t *testing.T) {
	h := newHarness(t)
	h.manage("aws_vpc.main", "aws_vpc", "vpc-1")
	h.cloud.emit(cloud.Event{Op: cloud.OpUpdate, ID: "vpc-1", Principal: "old-intruder"})
	h.cloud.emit(cloud.Event{Op: cloud.OpUpdate, ID: "vpc-1", Principal: "old-intruder"})

	cfg := h.config(ModeRepair)
	cfg.Watermark = -1
	c := h.start(cfg)
	if c.Watermark() != 2 {
		t.Fatalf("fresh enable watermark = %d, want 2 (log tail)", c.Watermark())
	}
	time.Sleep(20 * time.Millisecond)
	h.mu.Lock()
	verifies := h.verifies
	h.mu.Unlock()
	if verifies != 0 {
		t.Fatalf("fresh enable replayed history: %d verifies", verifies)
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
