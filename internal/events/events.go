// Package events is the live ops plane's spine (DESIGN.md S25): a typed,
// monotonically-sequenced in-process pub/sub bus. Every interesting
// transition in the system — apply lifecycle, health gates, fuse trips,
// auto-rollbacks, journal recovery, drift detections, provider-runtime
// signals, and the cloud activity tail — is published here, and every
// consumer surface (Stack.Subscribe, ApplyOptions.OnEvent, cloudlessd's
// event feed, cloudlessctl apply -watch) is a subscriber.
//
// Design constraints, in priority order:
//
//  1. The apply hot path never blocks on a consumer. Each subscription has a
//     bounded buffer; when it fills, the oldest buffered event is dropped and
//     a per-subscription drop counter increments. Publish is O(subscribers).
//  2. Sequence numbers are monotonic and gapless per bus, so a consumer that
//     reconnects can resume from a watermark via Since and detect loss.
//  3. Everything is nil-safe: a nil *Bus accepts Publish and Subscribe calls
//     as no-ops, so call sites need no plumbing checks (same convention as
//     internal/telemetry).
package events

import (
	"context"
	"strings"
	"sync"
	"time"
)

// Event is one observed transition. Kind is dot-namespaced
// ("apply.op_done", "provider.throttled", "cloud.activity", ...); the
// remaining fields are optional context, populated per kind and omitted from
// JSON when empty so the wire form stays compact.
type Event struct {
	Seq  int64  `json:"seq"`
	Time int64  `json:"time"` // unix nanoseconds
	Kind string `json:"kind"`

	Run       string  `json:"run,omitempty"`       // journal/run identifier
	Addr      string  `json:"addr,omitempty"`      // resource address (aws_vpc.main)
	Type      string  `json:"type,omitempty"`      // resource type
	ID        string  `json:"id,omitempty"`        // cloud-assigned resource id
	Region    string  `json:"region,omitempty"`    // failure domain / placement
	Action    string  `json:"action,omitempty"`    // create/update/delete/... or drift kind
	Wave      string  `json:"wave,omitempty"`      // canary | main | all
	Domain    string  `json:"domain,omitempty"`    // fuse failure domain
	Provider  string  `json:"provider,omitempty"`  // provider gate name
	Principal string  `json:"principal,omitempty"` // actor on cloud.activity events
	Err       string  `json:"err,omitempty"`       // error text on *_fail events
	N         int64   `json:"n,omitempty"`         // generic count (ops in wave, items recovered, ...)
	Retries   int64   `json:"retries,omitempty"`   // retry count on op_done/op_fail
	Ms        float64 `json:"ms,omitempty"`        // duration in milliseconds
	Window    float64 `json:"window,omitempty"`    // AIMD gate window after a resize
	CloudSeq  int64   `json:"cloud_seq,omitempty"` // activity-log seq on cloud.activity events
}

// Filter selects a subset of events for a subscription. The zero Filter
// matches everything. Kinds entries match exactly, or by namespace when they
// end in '.' ("apply." matches every apply.* event).
type Filter struct {
	Kinds []string
}

// Match reports whether the filter admits the event.
func (f Filter) Match(e Event) bool {
	if len(f.Kinds) == 0 {
		return true
	}
	for _, k := range f.Kinds {
		if k == e.Kind {
			return true
		}
		if strings.HasSuffix(k, ".") && strings.HasPrefix(e.Kind, k) {
			return true
		}
	}
	return false
}

// DefaultBuffer is the per-subscription channel capacity when Subscribe is
// called with size <= 0.
const DefaultBuffer = 256

// replayRing bounds the events retained for watermark resume via Since.
const replayRing = 4096

// Bus is the pub/sub hub. The zero value is NOT usable; call NewBus. All
// methods are safe for concurrent use and on a nil receiver.
type Bus struct {
	mu     sync.Mutex
	seq    int64
	subs   map[*Subscription]struct{}
	ring   []Event // replay buffer, oldest first
	start  int     // ring read index
	count  int     // live entries in ring
	nowNS  func() int64
	closed bool
}

// NewBus builds an empty bus. now supplies event timestamps (unix ns); nil
// uses the wall clock.
func NewBus(now func() int64) *Bus {
	b := &Bus{subs: map[*Subscription]struct{}{}, ring: make([]Event, replayRing), nowNS: now}
	if b.nowNS == nil {
		b.nowNS = func() int64 { return time.Now().UnixNano() }
	}
	return b
}

// Publish assigns the next sequence number and timestamp to e and delivers
// it to every matching subscription without blocking. Returns the assigned
// sequence (0 on a nil or closed bus).
func (b *Bus) Publish(e Event) int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.seq++
	e.Seq = b.seq
	if e.Time == 0 {
		e.Time = b.nowNS()
	}
	// Retain for Since; overwrite oldest when full.
	if b.count < len(b.ring) {
		b.ring[(b.start+b.count)%len(b.ring)] = e
		b.count++
	} else {
		b.ring[b.start] = e
		b.start = (b.start + 1) % len(b.ring)
	}
	for s := range b.subs {
		s.offer(e)
	}
	return b.seq
}

// LastSeq returns the highest sequence number assigned so far.
func (b *Bus) LastSeq() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// OldestSeq returns the oldest sequence number still in the replay ring
// (0 when nothing is retained). A watermark below OldestSeq()-1 cannot be
// resumed gaplessly: the ring has dropped events past its capacity.
func (b *Bus) OldestSeq() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count == 0 {
		return 0
	}
	return b.ring[b.start].Seq
}

// Since returns the retained events with Seq > after, oldest first, and the
// oldest sequence still retained. If after is older than the retention
// window the caller can detect the gap by comparing after+1 with the first
// returned Seq.
func (b *Bus) Since(after int64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for i := 0; i < b.count; i++ {
		e := b.ring[(b.start+i)%len(b.ring)]
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

// Subscribe registers a new subscription with the given filter and buffer
// size (<= 0 means DefaultBuffer). Events published after the call are
// delivered to the subscription's channel; when the buffer is full the
// oldest buffered event is dropped and the drop counter increments. A nil
// bus returns a subscription whose channel never delivers.
func (b *Bus) Subscribe(f Filter, size int) *Subscription {
	if size <= 0 {
		size = DefaultBuffer
	}
	s := &Subscription{ch: make(chan Event, size), filter: f, bus: b}
	if b == nil {
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		s.done = true
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Close shuts the bus down: every subscription channel is closed and further
// publishes are dropped.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		if !s.done {
			close(s.ch)
			s.done = true
		}
		delete(b.subs, s)
	}
}

// Subscription is one consumer's bounded view of the bus.
type Subscription struct {
	ch      chan Event
	filter  Filter
	bus     *Bus
	dropped int64 // guarded by bus.mu (or unshared once done)
	done    bool  // guarded by bus.mu
}

// C is the delivery channel. It is closed when the subscription or the bus
// closes.
func (s *Subscription) C() <-chan Event { return s.ch }

// offer delivers without blocking: on a full buffer it evicts the oldest
// buffered event. Called with bus.mu held, which also makes the evict+send
// pair race-free against concurrent publishers.
func (s *Subscription) offer(e Event) {
	if s.done || !s.filter.Match(e) {
		return
	}
	for {
		select {
		case s.ch <- e:
			return
		default:
		}
		select {
		case <-s.ch:
			s.dropped++
		default:
		}
	}
}

// Dropped reports how many events were evicted from this subscription's
// buffer because the consumer fell behind.
func (s *Subscription) Dropped() int64 {
	if s == nil || s.bus == nil {
		return 0
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the bus and closes its channel.
// Buffered events remain readable until drained.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	if s.bus == nil {
		if !s.done {
			close(s.ch)
			s.done = true
		}
		return
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.done {
		return
	}
	delete(s.bus.subs, s)
	close(s.ch)
	s.done = true
}

// ---- context carriage (mirrors internal/telemetry) ----

type ctxKey struct{}

// WithBus returns a context carrying the bus.
func WithBus(ctx context.Context, b *Bus) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext extracts the bus, or nil — whose methods are all no-ops — when
// none is attached.
func FromContext(ctx context.Context) *Bus {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(ctxKey{}).(*Bus)
	return b
}
