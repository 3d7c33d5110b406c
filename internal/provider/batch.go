package provider

import (
	"context"
	"strconv"

	"cloudless/internal/cloud"
)

// Bulk operations on the Runtime. Gate accounting is batch-aware: one batch
// holds ONE AIMD slot regardless of item count — the window tracks in-flight
// requests, and a batch is one request on the wire — so batching multiplies
// effective throughput under the same window. Congestion feedback (a 429 on
// the batch) shrinks the window exactly once, like any other call.
//
// Batched reads are their own coalescing: the items of one batch already
// share one call, so the runtime skips the per-key singleflight. Per-item
// retryable failures inside an otherwise-successful batch are NOT retried
// here — the batch call itself succeeded; callers that need stragglers
// redriven fall back to the single call path, which carries the full retry
// policy.

// BatchCreate implements cloud.Interface.
func (r *Runtime) BatchCreate(ctx context.Context, reqs []cloud.CreateRequest) ([]cloud.BatchResult, error) {
	return chunked(ctx, r, "batch_create", reqs, func(q cloud.CreateRequest) string { return q.Type }, r.upstream.BatchCreate)
}

// BatchGet implements cloud.Interface.
func (r *Runtime) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	return chunked(ctx, r, "batch_get", keys, func(k cloud.ResourceKey) string { return k.Type }, r.upstream.BatchGet)
}

// chunked sends items upstream in MaxBatchItems chunks, one gated call per
// chunk (gated on the first item's type), and concatenates the results.
func chunked[T any](ctx context.Context, r *Runtime, op string, items []T, typeOf func(T) string,
	send func(context.Context, []T) ([]cloud.BatchResult, error)) ([]cloud.BatchResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	results := make([]cloud.BatchResult, 0, len(items))
	for start := 0; start < len(items); start += cloud.MaxBatchItems {
		chunk := items[start:min(start+cloud.MaxBatchItems, len(items))]
		v, err := r.call(ctx, op, typeOf(chunk[0]), func(cctx context.Context) (any, error) {
			return send(cctx, chunk)
		})
		if err != nil {
			return nil, err
		}
		results = append(results, v.([]cloud.BatchResult)...)
	}
	return results, nil
}

// ListPage reads one page through the gate: the runtime's only list read
// path (List is the unbounded page). Concurrent reads of the same page
// coalesce.
func (r *Runtime) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*cloud.ListPageResult, error) {
	key := listKey(typ, region) + "?limit=" + strconv.Itoa(limit) + "&after=" + pageToken
	v, err := r.read(ctx, "list", typ, key, func(cctx context.Context) (any, error) {
		return r.upstream.ListPage(cctx, typ, region, limit, pageToken)
	})
	if err != nil {
		return nil, err
	}
	page := v.(*cloud.ListPageResult)
	out := &cloud.ListPageResult{
		Resources:     make([]*cloud.Resource, len(page.Resources)),
		NextPageToken: page.NextPageToken,
	}
	for i, res := range page.Resources {
		out.Resources[i] = res.Clone()
	}
	return out, nil
}
