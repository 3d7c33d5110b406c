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
// share one flight, so the runtime skips the per-key singleflight and goes
// straight to cache partitioning (hits served locally, misses batched
// upstream, results write-through). Per-item retryable failures inside an
// otherwise-successful batch are NOT retried here — the batch call itself
// succeeded; callers that need stragglers redriven fall back to the single
// call path, which carries the full retry policy.

// BatchCreate dispatches creates in MaxBatchItems chunks through the gate
// and write-throughs every created resource into the read cache.
func (r *Runtime) BatchCreate(ctx context.Context, reqs []cloud.CreateRequest) ([]cloud.BatchResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	results := make([]cloud.BatchResult, 0, len(reqs))
	for start := 0; start < len(reqs); start += cloud.MaxBatchItems {
		end := start + cloud.MaxBatchItems
		if end > len(reqs) {
			end = len(reqs)
		}
		chunk := reqs[start:end]
		v, err := r.call(ctx, "batch_create", chunk[0].Type, func(cctx context.Context) (any, error) {
			return r.upstream.BatchCreate(cctx, chunk)
		})
		if err != nil {
			return nil, err
		}
		results = append(results, v.([]cloud.BatchResult)...)
	}
	types := map[string]bool{}
	for i, res := range results {
		if res.Resource == nil {
			continue
		}
		r.cache.put(getKey(reqs[i].Type, res.Resource.ID), res.Resource.Clone(), r.now())
		r.cache.invalidate(healthKey(reqs[i].Type, res.Resource.ID))
		types[reqs[i].Type] = true
	}
	for typ := range types {
		r.cache.invalidateLists(typ)
	}
	return results, nil
}

// BatchGet partitions keys into cache hits and misses (all keys miss under
// WithFresh), fetches the misses in batched upstream calls, and fills the
// cache so later single Gets hit.
func (r *Runtime) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	reg := r.registryFor(ctx)
	results := make([]cloud.BatchResult, len(keys))
	var miss []int
	if isFresh(ctx) {
		miss = make([]int, len(keys))
		for i := range keys {
			miss[i] = i
		}
	} else {
		for i, k := range keys {
			if v, ok := r.cache.get(getKey(k.Type, k.ID), r.now()); ok {
				results[i] = cloud.BatchResult{Resource: v.(*cloud.Resource).Clone()}
				r.stats.cacheHits.Add(1)
				reg.Counter("provider.cache_hits", "op", "batch_get").Inc()
				continue
			}
			miss = append(miss, i)
		}
	}
	if len(miss) > 0 {
		r.stats.cacheMisses.Add(int64(len(miss)))
		reg.Counter("provider.cache_misses", "op", "batch_get").Add(int64(len(miss)))
	}
	for start := 0; start < len(miss); start += cloud.MaxBatchItems {
		end := start + cloud.MaxBatchItems
		if end > len(miss) {
			end = len(miss)
		}
		chunk := miss[start:end]
		missKeys := make([]cloud.ResourceKey, len(chunk))
		for j, i := range chunk {
			missKeys[j] = keys[i]
		}
		v, err := r.call(ctx, "batch_get", missKeys[0].Type, func(cctx context.Context) (any, error) {
			return r.upstream.BatchGet(cctx, missKeys)
		})
		if err != nil {
			return nil, err
		}
		batch := v.([]cloud.BatchResult)
		for j, i := range chunk {
			results[i] = batch[j]
			if res := batch[j].Resource; res != nil {
				r.cache.put(getKey(keys[i].Type, res.ID), res.Clone(), r.now())
			}
		}
	}
	return results, nil
}

// ListPage reads one page through the gate: the runtime's only list read
// path (List is the unbounded page). Pages are cached under a per-page key
// below the type's list prefix, which write-driven invalidation drops whole.
func (r *Runtime) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*cloud.ListPageResult, error) {
	key := listKey(typ, region) + "?limit=" + strconv.Itoa(limit) + "&after=" + pageToken
	v, err := r.read(ctx, "list", typ, key, true, func(cctx context.Context) (any, error) {
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
