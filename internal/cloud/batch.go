package cloud

import "context"

// This file defines the bulk control-plane surface: batched creates and
// reads, and paginated listing. Real clouds amortize per-call overhead with
// exactly these shapes (EC2 RunInstances min/max counts, DescribeInstances
// with InstanceIds, paginated Describe* APIs); the scale-out planner and
// applier depend on them so that throughput at 100k resources is bounded by
// provisioning latency, not HTTP round-trips.

// MaxBatchItems bounds one batch request, mirroring real bulk APIs (e.g.
// DescribeInstances' 1000-filter cap). Oversized batches fail wholesale with
// a 400 so callers learn to chunk.
const MaxBatchItems = 256

// ResourceKey identifies one resource for a batched read.
type ResourceKey struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	// IfGeneration makes the read conditional: a caller that already holds
	// the resource at this Generation may be answered NotModified instead of
	// in full. Zero asks for the full resource. A cloud may always ignore it
	// and answer in full, so wrappers forward it untouched.
	IfGeneration int `json:"if_generation,omitempty"`
}

// BatchResult is the per-item outcome of a batched operation. Exactly one of
// Resource, Err and NotModified is set; batched calls fail item-by-item,
// never wholesale, so one invalid request cannot sink its neighbours.
type BatchResult struct {
	Resource *Resource
	Err      error
	// NotModified answers a read whose key carried the resource's current
	// Generation: the caller's copy is still exact.
	NotModified bool
}

// ListPageResult is one page of a paginated List. NextPageToken is opaque to
// callers; an empty token means the listing is exhausted. Pages order
// resources by (type, id), so a full pagination sweep observes the same
// deterministic order as a plain List.
type ListPageResult struct {
	Resources     []*Resource
	NextPageToken string
}

// BatchCreator is the bulk-create part of Interface. The result slice is
// index-aligned with reqs; the returned error is reserved for whole-call
// failures (throttling, cancellation, transport loss, an oversized batch).
type BatchCreator interface {
	BatchCreate(ctx context.Context, reqs []CreateRequest) ([]BatchResult, error)
}

// BatchGetter is the bulk-read part of Interface. The result slice is
// index-aligned with keys; missing resources surface as per-item 404s, not a
// whole-call error. A key whose IfGeneration equals the resource's current
// Generation may be answered NotModified; any other key, and any key of a
// cloud that ignores IfGeneration, is answered in full.
type BatchGetter interface {
	BatchGet(ctx context.Context, keys []ResourceKey) ([]BatchResult, error)
}

// PageLister is the paginated-list part of Interface. limit 0 means no
// limit (the whole listing in one page); pageToken "" starts from the
// beginning.
type PageLister interface {
	ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*ListPageResult, error)
}
