// Package telemetry is the observability substrate for the whole stack: a
// dependency-free tracing and metrics layer (§3.3 critical-path deployment,
// §3.5 activity-log-native diagnosis both presuppose that operators can see
// where time and API calls go inside a lifecycle run).
//
// The package provides three cooperating pieces:
//
//   - Spans with parent/child links, recorded by a bounded in-memory
//     Recorder and exported as plain JSON or Chrome-trace format
//     (chrome://tracing / Perfetto).
//   - A Registry of counters, gauges, and histograms for control-plane
//     accounting (API calls, 429 throttles, lock waits, deadlock aborts).
//   - A Clock abstraction so benchmarks and tests run on a deterministic
//     virtual clock while production uses wall time.
//
// Instrumented packages never hold a Recorder directly: the recorder rides
// the context (WithRecorder/FromContext), and every method in this package
// is safe on a nil receiver, so instrumentation is free when telemetry is
// not enabled.
package telemetry

import (
	"sync"
	"time"
)

// Clock supplies timestamps for spans and metrics, and timers for loops
// that wait. Production code uses System; tests and deterministic benches
// inject a VirtualClock.
type Clock interface {
	Now() time.Time
	// After returns a channel that receives the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// systemClock reads the wall clock.
type systemClock struct{}

// Now returns the current wall time.
func (systemClock) Now() time.Time { return time.Now() }

// After is time.After.
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// System is the wall clock.
var System Clock = systemClock{}

// VirtualClock is a deterministic manual clock. Each Now() call returns the
// current virtual time and then advances it by Step, so consecutive reads
// are strictly ordered and span durations are exact multiples of Step —
// benches and -race tests get reproducible timings with no sleeping.
//
// After channels fire only when the clock moves past their deadline. A
// driver moves time with Advance once the goroutines it drives are parked:
// Waiters counts the After channels still pending, and BlockUntil waits for
// a loop to park on a new one. A channel whose receiver stopped listening
// stays pending until time passes its deadline, so a driver counts from
// the value Advance returns rather than from zero.
type VirtualClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	step    time.Duration
	waiters []virtualWaiter
}

type virtualWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtualClock starts a virtual clock at start, auto-advancing by step on
// every Now() read (step 0 means reads do not advance time).
func NewVirtualClock(start time.Time, step time.Duration) *VirtualClock {
	c := &VirtualClock{now: start, step: step}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the virtual time and advances it by the configured step.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	if c.step != 0 {
		c.now = c.now.Add(c.step)
		c.fireLocked()
	}
	return t
}

// After returns a channel that receives the virtual time once Advance (or
// a stepping Now) has moved the clock d past the current time. d <= 0
// fires at once.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, virtualWaiter{at: c.now.Add(d), ch: ch})
	c.cond.Broadcast()
	return ch
}

// Advance moves the virtual clock forward by d, fires every After whose
// deadline it reaches, and returns how many are still pending. The count is taken before any woken goroutine can arm a new
// one, so BlockUntil(n+1) waits for exactly one re-arm.
func (c *VirtualClock) Advance(d time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.fireLocked()
	return len(c.waiters)
}

// Waiters reports how many After channels are pending.
func (c *VirtualClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// BlockUntil blocks until at least n After channels are pending.
func (c *VirtualClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) < n {
		c.cond.Wait()
	}
}

func (c *VirtualClock) fireLocked() {
	pending := c.waiters[:0]
	for _, w := range c.waiters {
		if w.at.After(c.now) {
			pending = append(pending, w)
		} else {
			w.ch <- c.now
		}
	}
	c.waiters = pending
}
