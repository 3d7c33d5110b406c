// Package reconcile implements the continuous reconciliation controller
// (DESIGN.md S29): the converge loop that turns one-shot apply/drift/repair
// into a self-healing workspace. A Controller subscribes to the cloud's
// activity log (cloud.WaitActivity) and the workspace's ops-plane bus
// (drift.detected), maps foreign events to impacted state addresses,
// debounces them into batches, verifies just those addresses with a scoped
// drift scan (drift.ScanAddrs), and repairs confirmed drift through the
// guarded apply path the workspace provides.
//
// The controller is built so auto-repair can never make things worse:
//
//   - every repair runs guarded (canary + fuse + journal-backed rollback) —
//     the Repair hook is required to provide that;
//   - each address backs off exponentially after failed repairs;
//   - an address that keeps re-drifting after successful repairs (a flap —
//     usually a fight with another controller) is suppressed and surfaced
//     instead of hammered;
//   - repeated repair failures trip a circuit breaker that degrades the
//     whole controller to detect-only mode for a cooloff, then half-opens
//     with a single trial batch.
//
// A low-frequency FullScan safety net catches what events cannot: unmanaged
// creates, events lost to a subscriber overflow (Subscription.Dropped), and
// anything missed while the daemon was down. The activity watermark is
// acknowledged through OnCheckpoint only once every event at or below it has
// been verified (and repaired, when repair is on), so a restarted controller
// resumes from its journaled watermark with no missed drift, and re-verifies
// instead of re-repairing anything the previous life already fixed.
//
// Every wait and timestamp goes through the Config's telemetry.Clock, so a
// test runs the same loops on a VirtualClock and replays a run exactly.
package reconcile

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/events"
	"cloudless/internal/state"
	"cloudless/internal/telemetry"
)

// Controller modes.
const (
	// ModeRepair verifies and auto-repairs through the guarded apply path.
	ModeRepair = "repair"
	// ModeDetect verifies and surfaces drift but never mutates the cloud.
	ModeDetect = "detect"
)

// The controller's timing and damping. They are constants: each one only
// paces or damps the loop, and no deployment has a reason to choose it
// differently. The full-scan period is the exception (Config.FullScanEvery).
const (
	// Debounce batches a burst of foreign events into one scoped scan.
	Debounce = 100 * time.Millisecond
	// PollWait bounds one activity long-poll, and is the pause after a
	// failed one.
	PollWait = 2 * time.Second
	// BackoffBase and BackoffMax bound the per-address exponential backoff
	// after failed repairs.
	BackoffBase = time.Second
	BackoffMax  = 2 * time.Minute
	// FlapThreshold repairs of one address within FlapWindow suppress it
	// for FlapWindow.
	FlapWindow    = time.Minute
	FlapThreshold = 3
	// BreakerThreshold consecutive all-fail repair rounds open the circuit
	// breaker (detect-only) for BreakerCooloff.
	BreakerThreshold = 3
	BreakerCooloff   = time.Minute
	// DefaultFullScanEvery is the safety-net period when Config leaves it 0.
	DefaultFullScanEvery = 5 * time.Minute
)

// RepairOutcome is what one guarded repair attempt reports back. The
// controller trusts its own confirmation scan (not the outcome) to decide
// per-address success; the outcome supplies error detail and the rollback
// flag.
type RepairOutcome struct {
	// Applied counts cloud operations performed before any rollback.
	Applied int
	// Reverted reports that the guard's auto-rollback undid the batch.
	Reverted bool
	// Errors carries per-address failure detail.
	Errors map[string]string
}

// Checkpoint is the durable resume state a host persists via OnCheckpoint
// and feeds back through Config on restart.
type Checkpoint struct {
	Enabled   bool   `json:"enabled"`
	Mode      string `json:"mode"`
	Watermark int64  `json:"watermark"`
	// FullScanEvery is Config.FullScanEvery as the controller was enabled.
	FullScanEvery time.Duration `json:"full_scan_every,omitempty"`
}

// UnmarshalJSON also reads the older form, which kept the full-scan period
// under "tuning" next to nine knobs that are constants now; those are
// ignored.
func (cp *Checkpoint) UnmarshalJSON(b []byte) error {
	type plain Checkpoint
	var v struct {
		plain
		Tuning *struct {
			FullScanEvery time.Duration `json:"full_scan_every"`
		} `json:"tuning"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*cp = Checkpoint(v.plain)
	if v.Tuning != nil && cp.FullScanEvery == 0 {
		cp.FullScanEvery = v.Tuning.FullScanEvery
	}
	return nil
}

// Config wires a Controller to its workspace. The function hooks keep this
// package free of a workspace dependency (workspace imports reconcile, not
// the other way around).
type Config struct {
	// Name labels logs and status output (usually the workspace name).
	Name string
	// Principal is "us": activity by this principal is expected, not drift.
	Principal string
	// Cloud is the activity-log source (long-polled via cloud.WaitActivity).
	Cloud cloud.Interface
	// Bus, when set, feeds externally-detected drift (one-shot drift/scan
	// jobs) into the converge loop and receives reconcile.* progress events.
	Bus *events.Bus
	// Registry, when set, receives the reconcile.* counters and histograms.
	Registry *telemetry.Registry

	// Snapshot returns the current golden state (for event -> addr mapping).
	Snapshot func() *state.State
	// Verify runs a scoped drift scan over the given addresses.
	Verify func(ctx context.Context, addrs []string) (*drift.Report, error)
	// FullScan runs the expensive full-API safety-net scan.
	FullScan func(ctx context.Context) (*drift.Report, error)
	// Repair reverts a drift report through the guarded apply path. Only
	// consulted in ModeRepair. A returned *drift.ErrStaleReport is not a
	// failure: the baseline moved and the controller re-verifies.
	Repair func(ctx context.Context, rep *drift.Report) (*RepairOutcome, error)

	// Mode is ModeRepair (default) or ModeDetect.
	Mode string
	// Watermark resumes the activity cursor; -1 anchors at the log tail
	// (first enable: pre-existing history is not replayed).
	Watermark int64
	// OnCheckpoint receives the acknowledged watermark whenever it
	// advances — everything at or below it has been fully handled.
	OnCheckpoint func(watermark int64)

	// FullScanEvery is the period of the FullScan safety net: 0 means
	// DefaultFullScanEvery, < 0 turns it off. It is the one timing a
	// deployment sets, because it trades API quota (each full scan reads
	// the whole estate) against how soon drift the activity log cannot show
	// is found.
	FullScanEvery time.Duration
	// Clock drives every wait and timestamp; nil means telemetry.System.
	Clock telemetry.Clock
}

// addrState is the per-address controller state machine:
//
//	ok -> pending -> (verifying) -> drifted -> (repairing) -> ok
//	                                   |-> backoff ----------^
//	                                   |-> suppressed (flap) -> pending
type addrState struct {
	status     string // "pending" | "drifted" | "backoff" | "suppressed" | "ok"
	kind       string
	firstSeq   int64     // earliest unacknowledged activity seq implicating this addr
	eventTime  time.Time // earliest implicating event time (time-to-detect)
	detectedAt time.Time // when the current drift was first confirmed
	drifts     int
	repairs    int
	failures   int
	attempts   int       // consecutive failed repairs (backoff exponent)
	next       time.Time // no repair before this (backoff gate)
	recent     []time.Time
	suppressed time.Time // suppressed until (zero = not suppressed)
	lastErr    string
	lastActor  string
}

// AddrStatus is one address's externally visible state.
type AddrStatus struct {
	Addr       string  `json:"addr"`
	State      string  `json:"state"`
	Kind       string  `json:"kind,omitempty"`
	Drifts     int     `json:"drifts"`
	Repairs    int     `json:"repairs"`
	Failures   int     `json:"failures"`
	LastActor  string  `json:"last_actor,omitempty"`
	LastError  string  `json:"last_error,omitempty"`
	RetryInMs  float64 `json:"retry_in_ms,omitempty"`
	SuppressMs float64 `json:"suppressed_for_ms,omitempty"`
}

// Status is a point-in-time snapshot of the controller.
type Status struct {
	Enabled bool   `json:"enabled"`
	Mode    string `json:"mode"`
	State   string `json:"state"` // idle | verifying | repairing
	// DetectOnly reports that repairs are currently off — either by mode
	// or because the circuit breaker is open.
	DetectOnly  bool  `json:"detect_only"`
	BreakerOpen bool  `json:"breaker_open"`
	Watermark   int64 `json:"watermark"`  // acknowledged (durable) cursor
	IngestSeq   int64 `json:"ingest_seq"` // highest activity seq seen

	EventsSeen     int64 `json:"events_seen"`
	EventsDropped  int64 `json:"events_dropped"`
	Detected       int64 `json:"detected"`
	Repaired       int64 `json:"repaired"`
	RepairFailures int64 `json:"repair_failures"`
	Suppressed     int64 `json:"suppressed"`
	BreakerTrips   int64 `json:"breaker_trips"`
	ScopedScans    int64 `json:"scoped_scans"`
	FullScans      int64 `json:"full_scans"`
	Unmanaged      int64 `json:"unmanaged"` // unmanaged sightings (events + scans)

	Addrs []AddrStatus `json:"addrs,omitempty"`
}

// Controller is one workspace's converge loop. Create with Start; stop with
// Stop. All methods are safe for concurrent use.
type Controller struct {
	cfg Config
	clk telemetry.Clock

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wake   chan struct{}

	mu        sync.Mutex
	addrs     map[string]*addrState
	dirty     map[string]bool
	state     string
	ack       int64
	ingestSeq int64
	retryAt   time.Time // converge-loop error backoff

	breakerOpen  bool
	breakerUntil time.Time
	consecFails  int

	needFullScan   bool
	fullScanReason string
	fullScanAt     time.Time

	st Status // counter fields only
}

// Start validates the config, anchors the watermark, and spawns the
// controller's loops.
func Start(cfg Config) (*Controller, error) {
	if cfg.Cloud == nil || cfg.Snapshot == nil || cfg.Verify == nil || cfg.FullScan == nil {
		return nil, errors.New("reconcile: Cloud, Snapshot, Verify and FullScan are required")
	}
	switch cfg.Mode {
	case "":
		cfg.Mode = ModeRepair
	case ModeRepair, ModeDetect:
	default:
		return nil, fmt.Errorf("reconcile: unknown mode %q (%s|%s)", cfg.Mode, ModeRepair, ModeDetect)
	}
	if cfg.Mode == ModeRepair && cfg.Repair == nil {
		return nil, errors.New("reconcile: ModeRepair requires a Repair hook")
	}
	if cfg.FullScanEvery == 0 {
		cfg.FullScanEvery = DefaultFullScanEvery
	}
	if cfg.Clock == nil {
		cfg.Clock = telemetry.System
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:    cfg,
		clk:    cfg.Clock,
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
		addrs:  map[string]*addrState{},
		dirty:  map[string]bool{},
		state:  "idle",
	}
	if cfg.FullScanEvery > 0 {
		c.fullScanAt = c.clk.Now().Add(cfg.FullScanEvery)
	}

	// Anchor the cursor. A fresh enable (Watermark < 0) starts at the log
	// tail: pre-existing history is not drift we missed, it is history.
	start := cfg.Watermark
	if start < 0 {
		start = 0
		actx, acancel := context.WithTimeout(ctx, 10*time.Second)
		if evs, err := cfg.Cloud.Activity(actx, 0); err == nil && len(evs) > 0 {
			start = evs[len(evs)-1].Seq
		}
		acancel()
	}
	c.ack = start
	c.ingestSeq = start
	c.checkpoint(start)

	c.wg.Add(2)
	go c.activityLoop(start)
	go c.convergeLoop()
	if cfg.Bus != nil {
		// Subscribe before Start returns, so drift published right after
		// enabling cannot slip past an unregistered subscription.
		sub := cfg.Bus.Subscribe(events.Filter{Kinds: []string{"drift.detected"}}, 0)
		c.wg.Add(1)
		go c.busLoop(sub)
	}
	return c, nil
}

// Stop shuts the controller down and waits (bounded by ctx) for its loops
// to exit. In-flight verify/repair calls see a cancelled context.
func (c *Controller) Stop(ctx context.Context) error {
	c.cancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Mode returns the configured mode (not the breaker-degraded one).
func (c *Controller) Mode() string { return c.cfg.Mode }

// Watermark returns the acknowledged activity cursor.
func (c *Controller) Watermark() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ack
}

// Status snapshots the controller, per-address states sorted by address.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	out := c.st
	out.Enabled = c.ctx.Err() == nil
	out.Mode = c.cfg.Mode
	out.State = c.state
	out.BreakerOpen = c.breakerOpen
	out.DetectOnly = c.cfg.Mode == ModeDetect || c.breakerOpen
	out.Watermark = c.ack
	out.IngestSeq = c.ingestSeq
	for addr, as := range c.addrs {
		st := AddrStatus{
			Addr: addr, State: as.status, Kind: as.kind,
			Drifts: as.drifts, Repairs: as.repairs, Failures: as.failures,
			LastActor: as.lastActor, LastError: as.lastErr,
		}
		if c.dirty[addr] && (as.status == "ok" || as.status == "") {
			st.State = "pending"
		}
		if as.status == "backoff" && as.next.After(now) {
			st.RetryInMs = float64(as.next.Sub(now)) / float64(time.Millisecond)
		}
		if as.status == "suppressed" && as.suppressed.After(now) {
			st.SuppressMs = float64(as.suppressed.Sub(now)) / float64(time.Millisecond)
		}
		out.Addrs = append(out.Addrs, st)
	}
	sort.Slice(out.Addrs, func(i, j int) bool { return out.Addrs[i].Addr < out.Addrs[j].Addr })
	return out
}

// ---- event ingestion ----

// activityLoop tails the cloud activity log from start, mapping foreign
// events to state addresses.
func (c *Controller) activityLoop(start int64) {
	defer c.wg.Done()
	cursor := start
	for c.ctx.Err() == nil {
		evs, err := c.cfg.Cloud.WaitActivity(c.ctx, cursor, PollWait)
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			// Transient (throttle, restarting sim): back off briefly.
			c.sleep(PollWait)
			continue
		}
		if len(evs) == 0 {
			continue
		}
		cursor = c.ingest(evs, cursor)
	}
}

// ingest folds one activity batch into the dirty set and advances the
// in-memory cursor (the durable ack lags until the work is done).
func (c *Controller) ingest(evs []cloud.Event, cursor int64) int64 {
	snap := c.cfg.Snapshot()
	marked := false
	c.mu.Lock()
	for _, ev := range evs {
		if ev.Seq > cursor {
			cursor = ev.Seq
		}
		c.st.EventsSeen++
		c.counter("reconcile.events").Inc()
		if ev.Principal == c.cfg.Principal {
			continue
		}
		rs := snap.ByID(ev.ID)
		if rs == nil {
			if ev.Op == cloud.OpCreate {
				// Unmanaged create: invisible to a scoped verify; the
				// FullScan safety net owns it. Count the sighting.
				c.st.Unmanaged++
			}
			continue
		}
		c.markLocked(rs.Addr, ev.Seq, ev.Time, ev.Principal)
		marked = true
	}
	c.ingestSeq = cursor
	c.mu.Unlock()
	if marked {
		c.kick()
	} else {
		// Nothing to verify: the batch was our own echo or unmanaged churn,
		// so it is already fully handled and the ack can advance past it.
		c.recomputeAck()
	}
	return cursor
}

// busLoop feeds externally-detected drift (one-shot drift/scan jobs on the
// same workspace) into the converge loop and watches its own subscription
// for overflow: dropped events mean silently missed drift, so a gap
// schedules a catch-up FullScan. A burst is taken under one lock and costs
// one kick.
func (c *Controller) busLoop(sub *events.Subscription) {
	defer c.wg.Done()
	defer sub.Close()
	var seenDropped int64
	for {
		var e events.Event
		var ok bool
		select {
		case <-c.ctx.Done():
			return
		case e, ok = <-sub.C():
			if !ok {
				return
			}
		}
		c.mu.Lock()
		marked := false
		for ok {
			// Our own scoped verifier publishes drift.detected too; feeding
			// it back would make the loop chase its own tail.
			if e.Wave != "scoped" && e.Addr != "" {
				c.markLocked(e.Addr, 0, time.Unix(0, e.Time), e.Principal)
				if e.Action != "" {
					c.addrs[e.Addr].kind = e.Action
				}
				marked = true
			}
			select {
			case e, ok = <-sub.C():
			default:
				ok = false
			}
		}
		delta := sub.Dropped() - seenDropped
		if delta > 0 {
			seenDropped += delta
			c.st.EventsDropped += delta
			c.needFullScan = true
			c.fullScanReason = "events-dropped"
		}
		c.mu.Unlock()
		if delta > 0 {
			c.counter("reconcile.events_dropped").Add(delta)
			c.publish(events.Event{Kind: "reconcile.gap", N: delta})
		}
		if marked || delta > 0 {
			c.kick()
		}
	}
}

// markLocked flags one address for scoped verification. seq 0 means the mark
// did not come from the activity stream and must not pin the watermark.
func (c *Controller) markLocked(addr string, seq int64, at time.Time, actor string) {
	as := c.addrs[addr]
	if as == nil {
		as = &addrState{status: "ok"}
		c.addrs[addr] = as
	}
	if seq > 0 && (as.firstSeq == 0 || seq < as.firstSeq) {
		as.firstSeq = seq
	}
	if !at.IsZero() && at.Unix() > 0 && (as.eventTime.IsZero() || at.Before(as.eventTime)) {
		as.eventTime = at
	}
	if actor != "" {
		as.lastActor = actor
	}
	c.dirty[addr] = true
}

// kick nudges the converge loop.
func (c *Controller) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// ---- converge loop ----

func (c *Controller) convergeLoop() {
	defer c.wg.Done()
	for {
		if d := c.untilNextDeadline(); d > 0 {
			select {
			case <-c.ctx.Done():
				return
			case <-c.wake:
				// Debounce: let a burst of foreign events accumulate into
				// one scoped scan instead of one scan per event.
				if !c.sleep(Debounce) {
					return
				}
			case <-c.clk.After(d):
			}
		}
		if c.ctx.Err() != nil {
			return
		}
		c.round()
	}
}

// untilNextDeadline computes how long the converge loop may sleep: zero
// when work is already due.
func (c *Controller) untilNextDeadline() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	next := now.Add(time.Minute) // re-evaluate at least this often
	due := func(t time.Time) {
		if !t.IsZero() && t.Before(next) {
			next = t
		}
	}
	if len(c.dirty) > 0 || c.needFullScan {
		if c.retryAt.After(now) {
			due(c.retryAt)
		} else {
			return 0
		}
	}
	for _, as := range c.addrs {
		switch as.status {
		case "backoff":
			due(c.retryAtLocked(as))
		case "suppressed":
			due(as.suppressed)
		}
	}
	if c.cfg.FullScanEvery > 0 {
		due(c.fullScanAt)
	}
	if d := next.Sub(now); d > 0 {
		return d
	}
	return 0
}

// retryAtLocked is when an address in backoff is retried: at the end of its
// backoff, or of the breaker's cooloff if that is later. An open breaker
// repairs nothing, so retrying sooner would only re-verify in a loop.
func (c *Controller) retryAtLocked(as *addrState) time.Time {
	if c.breakerOpen && c.breakerUntil.After(as.next) {
		return c.breakerUntil
	}
	return as.next
}

// round runs one converge iteration: safety-net scan if due, then a scoped
// verify over the batch, then guarded repair of what is eligible.
func (c *Controller) round() {
	now := c.clk.Now()
	c.mu.Lock()
	if c.retryAt.After(now) {
		c.mu.Unlock()
		return
	}
	runFull, reason := false, ""
	if c.needFullScan {
		runFull, reason = true, c.fullScanReason
		c.needFullScan = false
	} else if c.cfg.FullScanEvery > 0 && !c.fullScanAt.After(now) {
		runFull, reason = true, "periodic"
	}
	c.mu.Unlock()
	if runFull {
		c.fullScan(reason)
		now = c.clk.Now()
	}

	batch := c.takeBatch(now)
	if len(batch) == 0 {
		c.recomputeAck()
		return
	}

	c.setState("verifying")
	defer c.setState("idle")
	rep, err := c.verify(batch)
	if err != nil {
		c.deferBatch(batch)
		return
	}
	drifted := c.recordVerify(batch, rep, c.clk.Now())

	eligible := c.eligibleRepairs(drifted)
	if len(eligible) > 0 {
		c.setState("repairing")
		c.repairBatch(rep, eligible)
	}
	c.recomputeAck()
}

// takeBatch drains the dirty set plus every address whose backoff or
// suppression window has expired.
func (c *Controller) takeBatch(now time.Time) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := map[string]bool{}
	for addr := range c.dirty {
		set[addr] = true
	}
	c.dirty = map[string]bool{}
	for addr, as := range c.addrs {
		switch as.status {
		case "drifted":
			set[addr] = true
		case "backoff":
			if !c.retryAtLocked(as).After(now) {
				set[addr] = true
			}
		case "suppressed":
			if !as.suppressed.After(now) {
				as.status = "drifted"
				as.suppressed = time.Time{}
				as.recent = nil // a fresh chance: flap memory resets
				set[addr] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// deferBatch re-queues a batch after a transient verify failure, with a
// short delay so a persistent error cannot hot-spin the loop.
func (c *Controller) deferBatch(batch []string) {
	c.mu.Lock()
	for _, addr := range batch {
		c.dirty[addr] = true
	}
	c.retryAt = c.clk.Now().Add(BackoffBase)
	c.mu.Unlock()
}

func (c *Controller) verify(addrs []string) (*drift.Report, error) {
	c.mu.Lock()
	c.st.ScopedScans++
	c.mu.Unlock()
	c.counter("reconcile.scoped_scans").Inc()
	return c.cfg.Verify(c.busCtx(), addrs)
}

// recordVerify folds a scoped report into the per-address states, returning
// the set of currently drifted addresses.
func (c *Controller) recordVerify(batch []string, rep *drift.Report, now time.Time) map[string]drift.Item {
	drifted := map[string]drift.Item{}
	for _, it := range rep.Items {
		if it.Addr != "" {
			drifted[it.Addr] = it
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, addr := range batch {
		as := c.addrs[addr]
		if as == nil {
			as = &addrState{status: "ok"}
			c.addrs[addr] = as
		}
		it, isDrifted := drifted[addr]
		if !isDrifted {
			// Clean: either never really drifted, repaired by an earlier
			// round, or healed externally. Resolved either way.
			c.resolveLocked(addr, as)
			continue
		}
		as.kind = it.Kind.String()
		if it.Actor != "" {
			as.lastActor = it.Actor
		}
		if as.status != "drifted" && as.status != "backoff" && as.status != "suppressed" {
			// Fresh detection (not a retry of known drift).
			as.status = "drifted"
			as.detectedAt = now
			as.drifts++
			c.st.Detected++
			c.counter("reconcile.detected").Inc()
			if !as.eventTime.IsZero() {
				ttd := now.Sub(as.eventTime)
				c.histogram("reconcile.ttd_ms").Observe(float64(ttd) / float64(time.Millisecond))
			}
		}
	}
	return drifted
}

// resolveLocked clears an address's drift bookkeeping (it is clean now) and
// releases its watermark pin.
func (c *Controller) resolveLocked(addr string, as *addrState) {
	as.status = "ok"
	as.firstSeq = 0
	as.eventTime = time.Time{}
	as.attempts = 0
	as.next = time.Time{}
	as.lastErr = ""
	_ = addr
}

// eligibleRepairs filters the drifted set down to what may be repaired now:
// repair mode, breaker closed (or half-open trial), no backoff gate, not
// flap-suppressed.
func (c *Controller) eligibleRepairs(drifted map[string]drift.Item) []string {
	if c.cfg.Mode != ModeRepair || len(drifted) == 0 {
		return nil
	}
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breakerOpen && c.breakerUntil.After(now) {
		return nil // open: detect-only until the cooloff expires
	}
	var out []string
	for addr := range drifted {
		as := c.addrs[addr]
		if as == nil {
			continue
		}
		if as.status == "suppressed" && as.suppressed.After(now) {
			continue
		}
		if as.next.After(now) {
			as.status = "backoff"
			continue
		}
		// Flap damping: an address we keep successfully repairing that
		// keeps coming back is a fight with some other actor. Suppress it
		// and surface it instead of joining the fight.
		recent := as.recent[:0]
		for _, t := range as.recent {
			if now.Sub(t) <= FlapWindow {
				recent = append(recent, t)
			}
		}
		as.recent = recent
		if len(as.recent) >= FlapThreshold {
			as.status = "suppressed"
			as.suppressed = now.Add(FlapWindow)
			as.firstSeq = 0 // surfaced, not missed: don't pin the watermark
			c.st.Suppressed++
			c.counter("reconcile.suppressions").Inc()
			c.publish(events.Event{Kind: "reconcile.suppressed", Addr: addr,
				Action: as.kind, N: int64(len(as.recent))})
			continue
		}
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// repairBatch runs one guarded repair over the eligible addresses and
// confirms the result with a second scoped scan — the confirmation, not the
// apply result, decides per-address success.
func (c *Controller) repairBatch(rep *drift.Report, eligible []string) {
	inBatch := map[string]bool{}
	for _, addr := range eligible {
		inBatch[addr] = true
	}
	sub := &drift.Report{Method: rep.Method, BaseSerial: rep.BaseSerial}
	for _, it := range rep.Items {
		if inBatch[it.Addr] {
			sub.Items = append(sub.Items, it)
		}
	}

	out, err := c.cfg.Repair(c.busCtx(), sub)
	var stale *drift.ErrStaleReport
	if errors.As(err, &stale) {
		// The golden state advanced between verify and repair (a concurrent
		// apply). Not a repair failure — re-verify against the new baseline.
		c.deferBatch(eligible)
		return
	}
	halfOpenTrial := false
	c.mu.Lock()
	if c.breakerOpen && !c.breakerUntil.After(c.clk.Now()) {
		halfOpenTrial = true
	}
	c.mu.Unlock()

	conf, cerr := c.verify(eligible)
	now := c.clk.Now()
	still := map[string]bool{}
	if cerr == nil {
		for _, it := range conf.Items {
			if it.Addr != "" {
				still[it.Addr] = true
			}
		}
	}

	succeeded, failed := 0, 0
	c.mu.Lock()
	for _, addr := range eligible {
		as := c.addrs[addr]
		if as == nil {
			continue
		}
		if cerr == nil && !still[addr] {
			succeeded++
			as.repairs++
			as.recent = append(as.recent, now)
			ttr := now.Sub(as.detectedAt)
			kind := as.kind
			c.st.Repaired++
			c.resolveLocked(addr, as)
			c.mu.Unlock()
			c.counter("reconcile.repaired").Inc()
			c.histogram("reconcile.ttr_ms").Observe(float64(ttr) / float64(time.Millisecond))
			c.publish(events.Event{Kind: "reconcile.repaired", Addr: addr,
				Action: kind, Ms: float64(ttr) / float64(time.Millisecond)})
			c.mu.Lock()
			continue
		}
		failed++
		as.failures++
		as.attempts++
		as.status = "backoff"
		as.next = now.Add(backoff(BackoffBase, BackoffMax, as.attempts))
		switch {
		case out != nil && out.Errors[addr] != "":
			as.lastErr = out.Errors[addr]
		case err != nil:
			as.lastErr = err.Error()
		case cerr != nil:
			as.lastErr = "confirmation scan failed: " + cerr.Error()
		case out != nil && out.Reverted:
			as.lastErr = "guarded repair rolled back"
		default:
			as.lastErr = "drift persisted after repair"
		}
		c.st.RepairFailures++
		lastErr, attempts := as.lastErr, as.attempts
		c.mu.Unlock()
		c.counter("reconcile.repair_failures").Inc()
		c.publish(events.Event{Kind: "reconcile.repair_fail", Addr: addr,
			Err: lastErr, N: int64(attempts)})
		c.mu.Lock()
	}

	// Circuit breaker: batch-level accounting. Any success proves the
	// repair path works and resets the streak (closing a half-open
	// breaker); an all-failure batch extends it.
	if succeeded > 0 {
		c.consecFails = 0
		if c.breakerOpen {
			c.breakerOpen = false
			c.mu.Unlock()
			c.publish(events.Event{Kind: "reconcile.breaker_close"})
			c.mu.Lock()
		}
	} else if failed > 0 {
		c.consecFails++
		trip := false
		if halfOpenTrial {
			// The trial failed: stay open for another cooloff.
			c.breakerUntil = now.Add(BreakerCooloff)
		} else if !c.breakerOpen && c.consecFails >= BreakerThreshold {
			c.breakerOpen = true
			c.breakerUntil = now.Add(BreakerCooloff)
			c.st.BreakerTrips++
			trip = true
		}
		if trip {
			fails := c.consecFails
			c.mu.Unlock()
			c.counter("reconcile.breaker_trips").Inc()
			c.publish(events.Event{Kind: "reconcile.breaker_open", N: int64(fails)})
			c.mu.Lock()
		}
	}
	c.mu.Unlock()
}

// fullScan runs the safety-net scan: managed drift feeds the normal scoped
// verify -> repair path; unmanaged sightings are counted and surfaced.
func (c *Controller) fullScan(reason string) {
	c.mu.Lock()
	c.st.FullScans++
	if c.cfg.FullScanEvery > 0 {
		c.fullScanAt = c.clk.Now().Add(c.cfg.FullScanEvery)
	}
	c.mu.Unlock()
	c.counter("reconcile.full_scans").Inc()
	rep, err := c.cfg.FullScan(c.busCtx())
	if err != nil {
		c.mu.Lock()
		c.retryAt = c.clk.Now().Add(BackoffBase)
		c.mu.Unlock()
		return
	}
	marked := int64(0)
	c.mu.Lock()
	for _, it := range rep.Items {
		if it.Addr == "" {
			c.st.Unmanaged++
			continue
		}
		c.markLocked(it.Addr, 0, time.Time{}, it.Actor)
		c.addrs[it.Addr].kind = it.Kind.String()
		marked++
	}
	c.mu.Unlock()
	c.publish(events.Event{Kind: "reconcile.full_scan", Action: reason, N: marked})
}

// ---- watermark acknowledgment ----

// recomputeAck advances the durable watermark to the highest activity seq
// with no unresolved work at or below it, and checkpoints when it moved.
func (c *Controller) recomputeAck() {
	c.mu.Lock()
	cand := c.ingestSeq
	for addr, as := range c.addrs {
		if as.firstSeq > 0 && (c.dirty[addr] || as.status != "ok") {
			if as.firstSeq-1 < cand {
				cand = as.firstSeq - 1
			}
		}
	}
	advanced := cand > c.ack
	if advanced {
		c.ack = cand
	}
	c.mu.Unlock()
	if advanced {
		c.checkpoint(cand)
	}
}

func (c *Controller) checkpoint(wm int64) {
	if c.cfg.OnCheckpoint != nil {
		c.cfg.OnCheckpoint(wm)
	}
}

// ---- plumbing ----

func (c *Controller) setState(s string) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}

// busCtx attaches the workspace bus so drift scans running under the
// controller publish drift.detected like any other detection pass.
func (c *Controller) busCtx() context.Context {
	if c.cfg.Bus == nil {
		return c.ctx
	}
	return events.WithBus(c.ctx, c.cfg.Bus)
}

func (c *Controller) publish(e events.Event) {
	if c.cfg.Bus != nil {
		c.cfg.Bus.Publish(e)
	}
}

func (c *Controller) counter(name string) *telemetry.Counter {
	return c.cfg.Registry.Counter(name)
}

func (c *Controller) histogram(name string) *telemetry.Histogram {
	return c.cfg.Registry.Histogram(name)
}

// backoff computes the capped exponential delay for the n-th consecutive
// failure (n >= 1).
func backoff(base, max time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// sleep waits d on the controller's clock; false means the controller is
// stopping.
func (c *Controller) sleep(d time.Duration) bool {
	select {
	case <-c.ctx.Done():
		return false
	case <-c.clk.After(d):
		return true
	}
}
