package cloud

import (
	"context"
	"sync"
	"time"
)

// Coalescer wraps an Interface and merges concurrent Create and Get calls
// into batched wire requests (BatchCreate / BatchGet). It is the bridge
// between per-resource callers — the apply walker issues one Create per
// graph node, exactly as the journal and idempotency machinery require —
// and the bulk control-plane surface: calls that arrive within a short
// linger window ride the same batch, so a wave of independent creates
// unblocked together by the walker costs one admitted call instead of one
// per resource.
//
// Single-call semantics are preserved exactly: each caller gets its own
// resource or error (batches fail item-by-item), idempotency keys travel
// per item, and an isolated call just rides a batch of one after the
// linger expires. Every other verb, the bulk ones included, passes straight
// through to the wrapped Interface.
//
// The batch is dispatched with the context of the call that opened the
// window. Coalescing only helps callers that share a lifecycle (one apply
// run); callers with independent cancellation should use separate
// Coalescers.
type Coalescer struct {
	Interface // pass-through for every verb but Create and Get
	opts      CoalescerOptions

	mu      sync.Mutex
	creates []pendingOp
	gets    []pendingOp
}

var _ Interface = (*Coalescer)(nil)

// CoalescerOptions tunes the batching window.
type CoalescerOptions struct {
	// Linger is how long the first call of a window waits for company
	// before the batch is dispatched (default 2ms). Latency cost is at most
	// one linger per graph level; with cloud round-trips in the tens of
	// milliseconds the trade is strongly positive.
	Linger time.Duration
}

// pendingOp is one caller waiting inside a window. Exactly one of the
// request fields is set depending on the queue it sits in.
type pendingOp struct {
	create CreateRequest
	key    ResourceKey
	done   chan BatchResult
}

// NewCoalescer wraps cl.
func NewCoalescer(cl Interface, opts CoalescerOptions) *Coalescer {
	if opts.Linger <= 0 {
		opts.Linger = 2 * time.Millisecond
	}
	return &Coalescer{Interface: cl, opts: opts}
}

// Create enqueues the request into the current window and blocks until the
// batch carrying it lands.
func (c *Coalescer) Create(ctx context.Context, req CreateRequest) (*Resource, error) {
	op := pendingOp{create: req, done: make(chan BatchResult, 1)}
	c.enqueue(ctx, &c.creates, op, c.flushCreates)
	return c.await(ctx, op.done)
}

// Get enqueues the read into the current window and blocks until the batch
// carrying it lands.
func (c *Coalescer) Get(ctx context.Context, typ, id string) (*Resource, error) {
	op := pendingOp{key: ResourceKey{Type: typ, ID: id}, done: make(chan BatchResult, 1)}
	c.enqueue(ctx, &c.gets, op, c.flushGets)
	return c.await(ctx, op.done)
}

// enqueue adds op to a queue, arming the linger timer when it opens a new
// window and flushing inline when the window fills.
func (c *Coalescer) enqueue(ctx context.Context, queue *[]pendingOp, op pendingOp, flush func(context.Context)) {
	c.mu.Lock()
	*queue = append(*queue, op)
	first := len(*queue) == 1
	full := len(*queue) >= MaxBatchItems
	c.mu.Unlock()
	switch {
	case full:
		flush(ctx)
	case first:
		time.AfterFunc(c.opts.Linger, func() { flush(ctx) })
	}
}

// await delivers the caller's slice of the batch outcome.
func (c *Coalescer) await(ctx context.Context, done <-chan BatchResult) (*Resource, error) {
	select {
	case r := <-done:
		return r.Resource, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flushCreates drains the create window into one BatchCreate. A stale timer
// firing after an early full-flush finds an empty (or younger) queue and
// simply dispatches whatever is there — a smaller batch, never a lost op.
func (c *Coalescer) flushCreates(ctx context.Context) {
	c.mu.Lock()
	batch := c.creates
	c.creates = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	reqs := make([]CreateRequest, len(batch))
	for i, op := range batch {
		reqs[i] = op.create
	}
	results, err := c.Interface.BatchCreate(ctx, reqs)
	deliver(batch, results, err)
}

// flushGets drains the read window into one BatchGet.
func (c *Coalescer) flushGets(ctx context.Context) {
	c.mu.Lock()
	batch := c.gets
	c.gets = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	keys := make([]ResourceKey, len(batch))
	for i, op := range batch {
		keys[i] = op.key
	}
	results, err := c.Interface.BatchGet(ctx, keys)
	deliver(batch, results, err)
}

// deliver hands each waiter its per-item result; a whole-call failure
// (throttle on the batch, transport loss, cancellation) fans out to every
// item that has no result of its own.
func deliver(batch []pendingOp, results []BatchResult, err error) {
	for i, op := range batch {
		r := BatchResult{Err: err}
		if i < len(results) && (results[i].Resource != nil || results[i].Err != nil) {
			r = results[i]
		} else if err == nil {
			r = BatchResult{Err: &APIError{Code: CodeInternal, Op: "batch",
				Message: "InternalError: batch result missing for item"}}
		}
		op.done <- r
	}
}
