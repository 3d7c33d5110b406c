// Package health implements the guarded-apply primitives layered on the
// cloud's readiness lifecycle (DESIGN.md S24):
//
//   - Probe: poll a resource's health with timeout and backoff until it turns
//     ready, fails, or the deadline passes — the gate between "the API ACKed"
//     and "the op is done";
//   - Fuse: a per-domain failure-rate circuit breaker (per run and per
//     region) that stops admitting new ops once a domain has failed too much,
//     while in-flight ops drain;
//   - CanaryWave: a dependency-closed selection of the changeset applied
//     first, gating the release of the rest.
//
// The orchestration that composes these with the journal-backed rollback
// lives in internal/guard.
package health

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cloudless/internal/cloud"
)

// ProbeOptions bound one readiness probe loop.
type ProbeOptions struct {
	// Timeout is the total time a resource gets to turn ready (default 30s).
	Timeout time.Duration
	// Interval is the first poll gap; subsequent polls back off
	// exponentially (default 10ms).
	Interval time.Duration
	// MaxInterval caps the poll gap (default 500ms).
	MaxInterval time.Duration
}

func (o ProbeOptions) withDefaults() ProbeOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	if o.MaxInterval <= 0 {
		o.MaxInterval = 500 * time.Millisecond
	}
	return o
}

// GateError is the failure of a health gate: the cloud ACKed the op but the
// resource never turned ready. The resource exists — callers must record it
// (state, journal) before propagating the error, or it becomes an orphan.
type GateError struct {
	Addr   string
	Type   string
	ID     string
	Status cloud.HealthStatus
	Reason string
	// Waited is how long the probe loop watched before giving up.
	Waited time.Duration
}

// Error implements the error interface.
func (e *GateError) Error() string {
	msg := fmt.Sprintf("health gate: %s %s is %s after %s", e.Type, e.ID, e.Status, e.Waited.Round(time.Millisecond))
	if e.Addr != "" {
		msg = e.Addr + ": " + msg
	}
	if e.Reason != "" {
		msg += " (" + e.Reason + ")"
	}
	return msg
}

// IsGateError reports whether err is (or wraps) a health-gate failure.
func IsGateError(err error) bool {
	var ge *GateError
	return errors.As(err, &ge)
}

// Probe polls a resource's health until it is ready (nil error), definitively
// failed, or the timeout passes (*GateError), or ctx is canceled (ctx error).
// Through a provider runtime, concurrent probes of the same resource share
// one call.
func Probe(ctx context.Context, cl cloud.Interface, typ, id string, o ProbeOptions) (time.Duration, error) {
	o = o.withDefaults()
	start := time.Now()
	deadline := start.Add(o.Timeout)
	interval := o.Interval
	last := cloud.HealthUnknown
	reason := ""
	for {
		rep, err := cl.Health(ctx, typ, id)
		switch {
		case err == nil:
			last, reason = rep.Status, rep.Reason
			if rep.Status.Ready() {
				return time.Since(start), nil
			}
			if rep.Status == cloud.HealthFailed {
				// Terminal: no point burning the rest of the timeout.
				return time.Since(start), &GateError{Type: typ, ID: id,
					Status: rep.Status, Reason: rep.Reason, Waited: time.Since(start)}
			}
		case ctx.Err() != nil:
			return time.Since(start), ctx.Err()
		default:
			// Transient probe failure (the runtime already retried): keep
			// polling until the deadline — an unreachable health endpoint is
			// not evidence the resource is broken.
		}
		now := time.Now()
		if now.Add(interval).After(deadline) {
			return time.Since(start), &GateError{Type: typ, ID: id,
				Status: last, Reason: reason, Waited: time.Since(start)}
		}
		t := time.NewTimer(interval)
		select {
		case <-ctx.Done():
			t.Stop()
			return time.Since(start), ctx.Err()
		case <-t.C:
		}
		interval *= 2
		if interval > o.MaxInterval {
			interval = o.MaxInterval
		}
	}
}
