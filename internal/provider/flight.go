package provider

import (
	"context"
	"sync"
)

// Flight keys: concurrent reads with the same key share one upstream call.
// Gets and health probes are keyed by (type, id), list pages by (type,
// region, limit, page token).
func getKey(typ, id string) string      { return "get/" + typ + "/" + id }
func healthKey(typ, id string) string   { return "health/" + typ + "/" + id }
func listKey(typ, region string) string { return "list/" + typ + "/" + region }

// flight is one in-progress upstream read shared by every caller that asked
// for the same key while it was in the air.
type flight struct {
	mu        sync.Mutex
	waiters   int
	abandoned bool // every waiter canceled; the flight is being torn down

	done   chan struct{}
	cancel context.CancelFunc
	val    any
	err    error
}

// flightGroup coalesces identical concurrent reads (singleflight). Unlike
// the classic implementation, a flight runs on its own context detached
// from the leader's: one caller canceling — even the one that launched the
// call — must not poison the result for everyone else. The flight context
// is canceled only when the last interested waiter has walked away.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// Do runs fn once per key among concurrent callers; every caller gets the
// same result. shared reports whether this caller joined an existing
// flight; onJoin (may be nil) fires at join time, before waiting, so
// coalescing is observable while the flight is still in the air. Callers
// whose ctx is done get their own ctx error immediately.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) (any, error), onJoin func()) (v any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	if f, ok := g.m[key]; ok && f.join() {
		g.mu.Unlock()
		if onJoin != nil {
			onJoin()
		}
		return f.wait(ctx, true)
	}
	f := &flight{waiters: 1, done: make(chan struct{})}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f.cancel = cancel
	g.m[key] = f
	g.mu.Unlock()

	go func() {
		val, err := fn(fctx)
		f.mu.Lock()
		f.val, f.err = val, err
		f.mu.Unlock()
		g.mu.Lock()
		if g.m[key] == f {
			delete(g.m, key)
		}
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return f.wait(ctx, false)
}

// join registers interest in an existing flight; it fails if the flight is
// already being abandoned (the caller should start a new one).
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.abandoned {
		return false
	}
	f.waiters++
	return true
}

// wait blocks until the flight lands or the caller's own context is done.
// A departing caller that is the last waiter cancels the flight.
func (f *flight) wait(ctx context.Context, shared bool) (any, bool, error) {
	select {
	case <-f.done:
		f.mu.Lock()
		v, err := f.val, f.err
		f.mu.Unlock()
		return v, shared, err
	case <-ctx.Done():
		f.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.abandoned = true
			f.cancel()
		}
		f.mu.Unlock()
		return nil, shared, ctx.Err()
	}
}
