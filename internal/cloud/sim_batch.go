package cloud

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cloudless/internal/schema"
)

// Batch operations on the simulator. Each batch admits exactly once — one
// rate-limiter token, one metrics.Calls increment, one throttle-injection
// slot — which is the whole point of batching: per-call overhead is paid per
// batch, while per-item work (validation, provisioning latency) is paid per
// item, concurrently, the way a real control plane fans provisioning out.

// admitType picks the type a batch is admitted (rate-limited, metered)
// under: the first item whose provider is known. Items of unknown types must
// fail item-by-item, not poison the admission of their batch-mates.
func admitType(reqs []CreateRequest) string {
	for _, r := range reqs {
		if _, ok := schema.ProviderForType(r.Type); ok {
			return r.Type
		}
	}
	return reqs[0].Type
}

// BatchCreate provisions up to MaxBatchItems resources under a single
// admitted call. Items succeed or fail independently; results are
// index-aligned with reqs.
func (s *Sim) BatchCreate(ctx context.Context, reqs []CreateRequest) ([]BatchResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) > MaxBatchItems {
		return nil, &APIError{Code: CodeInvalid, Op: "batch_create", Type: reqs[0].Type,
			Message: fmt.Sprintf("BatchTooLarge: %d items exceeds the limit of %d per call", len(reqs), MaxBatchItems)}
	}
	if err := s.admit(ctx, "batch_create", admitType(reqs), true); err != nil {
		return nil, err
	}
	if err := s.maybeCrash(CrashBeforeOp); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.metrics.BatchCalls++
	s.metrics.BatchItems += int64(len(reqs))
	s.mu.Unlock()

	results := make([]BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		rs, ok := schema.LookupResource(reqs[i].Type)
		if !ok {
			results[i] = BatchResult{Err: &APIError{Code: CodeInvalid, Op: "create", Type: reqs[i].Type,
				Message: fmt.Sprintf("UnknownResourceType: %q", reqs[i].Type)}}
			continue
		}
		if rs.DataSource {
			results[i] = BatchResult{Err: &APIError{Code: CodeInvalid, Op: "create", Type: reqs[i].Type,
				Message: "InvalidOperation: data sources cannot be created"}}
			continue
		}
		wg.Add(1)
		go func(i int, rs *schema.ResourceSchema) {
			defer wg.Done()
			res, err := s.provisionOne(ctx, rs, reqs[i])
			results[i] = BatchResult{Resource: res, Err: err}
		}(i, rs)
	}
	wg.Wait()
	if err := s.maybeCrash(CrashAfterOp); err != nil {
		return nil, err
	}
	return results, nil
}

// BatchGet reads up to MaxBatchItems resources under a single admitted call
// and one modeled read round-trip. Missing resources are per-item 404s; a
// key whose IfGeneration is the stored Generation is answered NotModified.
func (s *Sim) BatchGet(ctx context.Context, keys []ResourceKey) ([]BatchResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if len(keys) > MaxBatchItems {
		return nil, &APIError{Code: CodeInvalid, Op: "batch_get", Type: keys[0].Type,
			Message: fmt.Sprintf("BatchTooLarge: %d items exceeds the limit of %d per call", len(keys), MaxBatchItems)}
	}
	if err := s.admit(ctx, "batch_get", keys[0].Type, false); err != nil {
		return nil, err
	}
	if err := s.sleepScaled(ctx, s.opts.ReadLatency); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.metrics.BatchCalls++
	s.metrics.BatchItems += int64(len(keys))
	s.metrics.Reads += int64(len(keys))
	results := make([]BatchResult, len(keys))
	for i, k := range keys {
		r := s.store[k.Type][k.ID]
		switch {
		case r != nil && k.IfGeneration != 0 && r.Generation == k.IfGeneration:
			results[i] = BatchResult{NotModified: true}
		case r != nil:
			results[i] = BatchResult{Resource: r.Clone()}
		default:
			results[i] = BatchResult{Err: &APIError{Code: CodeNotFound, Op: "get", Type: k.Type, ID: k.ID,
				Message: fmt.Sprintf("ResourceNotFound: %s %q does not exist", prettyType(k.Type), k.ID)}}
		}
	}
	s.mu.Unlock()
	return results, nil
}

// ListPage returns one ID-ordered page of a type's resources. The page token
// is the last ID of the previous page ("strictly after" semantics), so
// concurrent creates and deletes never skip or duplicate surviving entries.
func (s *Sim) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*ListPageResult, error) {
	if err := s.admit(ctx, "list", typ, false); err != nil {
		return nil, err
	}
	if err := s.sleepScaled(ctx, s.opts.ReadLatency); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.metrics.Lists++
	var all []*Resource
	for _, r := range s.store[typ] {
		if region == "" || r.Region == region {
			all = append(all, r.Clone())
		}
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return slicePage(all, limit, pageToken), nil
}

// slicePage cuts one page out of an ID-sorted slice using "strictly after
// token" semantics: the token is the last ID of the previous page, so pages
// stay stable when resources are created or deleted between calls.
func slicePage(sorted []*Resource, limit int, pageToken string) *ListPageResult {
	start := 0
	if pageToken != "" {
		start = sort.Search(len(sorted), func(i int) bool { return sorted[i].ID > pageToken })
	}
	rest := sorted[start:]
	if limit <= 0 || limit >= len(rest) {
		return &ListPageResult{Resources: rest}
	}
	page := rest[:limit]
	return &ListPageResult{Resources: page, NextPageToken: page[len(page)-1].ID}
}
