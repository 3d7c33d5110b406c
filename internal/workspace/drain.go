package workspace

import (
	"context"
	"sync"
)

// drainGate coordinates a draining close: lifecycle operations register
// through begin/end, close flips the gate so new operations fail fast,
// waits until the in-flight count hits zero, and elects exactly one caller
// to release resources. Everybody else (concurrent and repeated closers)
// waits for that release and returns its error.
type drainGate struct {
	mu          sync.Mutex
	inflight    int
	closing     bool
	drainClosed bool
	releasing   bool
	closeErr    error
	drained     chan struct{} // closed when closing && inflight == 0
	done        chan struct{} // closed after the elected releaser finishes
}

func (g *drainGate) init() {
	g.drained = make(chan struct{})
	g.done = make(chan struct{})
}

// begin admits one operation, or fails with *ErrClosed once close has begun.
func (g *drainGate) begin(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closing {
		return &ErrClosed{Name: name}
	}
	g.inflight++
	return nil
}

// end retires one operation admitted by begin.
func (g *drainGate) end() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.closing && g.inflight == 0 && !g.drainClosed {
		g.drainClosed = true
		close(g.drained)
	}
}

// close starts (or joins) the drain. It returns (true, nil) to exactly one
// caller — the elected releaser, which must call finish after freeing
// resources — and (false, err) to everyone else: ctx.Err() if the wait was
// cut short, otherwise the releaser's error once it finishes.
func (g *drainGate) close(ctx context.Context) (release bool, err error) {
	g.mu.Lock()
	if !g.closing {
		g.closing = true
		if g.inflight == 0 && !g.drainClosed {
			g.drainClosed = true
			close(g.drained)
		}
	}
	g.mu.Unlock()

	select {
	case <-g.drained:
	case <-ctx.Done():
		return false, ctx.Err()
	}

	g.mu.Lock()
	if !g.releasing {
		g.releasing = true
		g.mu.Unlock()
		return true, nil
	}
	g.mu.Unlock()
	select {
	case <-g.done:
		return false, g.closeErr
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// finish records the release outcome and unblocks every waiting closer.
func (g *drainGate) finish(err error) {
	g.mu.Lock()
	g.closeErr = err
	g.mu.Unlock()
	close(g.done)
}

// journalOwner is exclusive ownership of a workspace's journal file (DESIGN.md
// S23): a one-slot semaphore held by whoever may read, recover, write or
// remove the file. While a run holds it the file is that run's live journal,
// not a stale one, and the next journaled run waits its turn. Nil — a
// workspace without a journal — is never contended.
type journalOwner chan struct{}

// acquire waits for the journal, or for ctx to end.
func (o journalOwner) acquire(ctx context.Context) error {
	if o == nil {
		return nil
	}
	select {
	case o <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// try takes the journal only when nobody holds it.
func (o journalOwner) try() bool {
	if o == nil {
		return true
	}
	select {
	case o <- struct{}{}:
		return true
	default:
		return false
	}
}

// release hands the journal to the next waiter.
func (o journalOwner) release() {
	if o != nil {
		<-o
	}
}
