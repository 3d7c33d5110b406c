package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"cloudless/internal/cloud"
)

// callLog is what the traced pass records at a layer boundary: one interval
// per call. Spans stay in memory until the pass ends.
type callLog struct {
	mu sync.Mutex
	iv []interval
}

func (l *callLog) record(start time.Time) {
	end := time.Now()
	l.mu.Lock()
	l.iv = append(l.iv, interval{start, end})
	l.mu.Unlock()
}

// take returns the intervals recorded since the previous take.
func (l *callLog) take() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.iv
	l.iv = nil
	return out
}

// durationsUs lists each interval's length in microseconds.
func durationsUs(iv []interval) []float64 {
	out := make([]float64, len(iv))
	for i, x := range iv {
		out[i] = float64(x.end.Sub(x.start)) / float64(time.Microsecond)
	}
	return out
}

// wireCloud is every method the provider runtime looks for on its upstream;
// *cloud.Client has them all, and the decorator must too, or the runtime
// would fall back to per-item calls and the traced pass would measure a
// different program.
type wireCloud interface {
	cloud.Interface
	cloud.BatchCreator
	cloud.BatchGetter
	cloud.PageLister
	cloud.ActivityWaiter
}

// tracedCloud is the benchmark-owned decorator passed as Options.Cloud in
// the traced pass: it forwards every call and records its interval.
type tracedCloud struct {
	in  wireCloud
	log *callLog
}

func (t tracedCloud) Create(ctx context.Context, req cloud.CreateRequest) (*cloud.Resource, error) {
	defer t.log.record(time.Now())
	return t.in.Create(ctx, req)
}

func (t tracedCloud) Get(ctx context.Context, typ, id string) (*cloud.Resource, error) {
	defer t.log.record(time.Now())
	return t.in.Get(ctx, typ, id)
}

func (t tracedCloud) Update(ctx context.Context, req cloud.UpdateRequest) (*cloud.Resource, error) {
	defer t.log.record(time.Now())
	return t.in.Update(ctx, req)
}

func (t tracedCloud) Delete(ctx context.Context, typ, id, principal string) error {
	defer t.log.record(time.Now())
	return t.in.Delete(ctx, typ, id, principal)
}

func (t tracedCloud) List(ctx context.Context, typ, region string) ([]*cloud.Resource, error) {
	defer t.log.record(time.Now())
	return t.in.List(ctx, typ, region)
}

func (t tracedCloud) Activity(ctx context.Context, afterSeq int64) ([]cloud.Event, error) {
	defer t.log.record(time.Now())
	return t.in.Activity(ctx, afterSeq)
}

func (t tracedCloud) Health(ctx context.Context, typ, id string) (*cloud.HealthReport, error) {
	defer t.log.record(time.Now())
	return t.in.Health(ctx, typ, id)
}

func (t tracedCloud) BatchCreate(ctx context.Context, reqs []cloud.CreateRequest) ([]cloud.BatchResult, error) {
	defer t.log.record(time.Now())
	return t.in.BatchCreate(ctx, reqs)
}

func (t tracedCloud) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	defer t.log.record(time.Now())
	return t.in.BatchGet(ctx, keys)
}

func (t tracedCloud) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*cloud.ListPageResult, error) {
	defer t.log.record(time.Now())
	return t.in.ListPage(ctx, typ, region, limit, pageToken)
}

func (t tracedCloud) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]cloud.Event, error) {
	defer t.log.record(time.Now())
	return t.in.WaitActivity(ctx, afterSeq, wait)
}

// tracedHandler records handler-side time of the sim's HTTP server: the
// cloud's own share of a call, as opposed to the wire and client around it.
func tracedHandler(h http.Handler, log *callLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer log.record(time.Now())
		h.ServeHTTP(w, r)
	})
}
