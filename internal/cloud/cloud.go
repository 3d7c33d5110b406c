// Package cloud implements the simulated multi-region cloud substrate that
// Cloudless deploys onto.
//
// The simulator reproduces the control-plane behaviours every mechanism in
// the paper interacts with: resource CRUD with cloud-assigned IDs and
// computed attributes, per-provider API rate limiting with throttling
// (HTTP 429 semantics), realistic per-type provisioning latency, transient
// failure injection, per-region quotas, deploy-time constraint enforcement
// with deliberately vague error messages (the §3.5 motivation for an IaC
// debugger), and an activity log modeled on Azure Activity Log / AWS
// CloudTrail (§3.5 drift detection).
//
// The same API is available in-process (Sim) and over HTTP (Server/Client),
// so experiments can choose between microsecond-scale in-memory calls and a
// real network path.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cloudless/internal/eval"
)

// Resource is one deployed cloud resource.
type Resource struct {
	// ID is the cloud-assigned identifier, e.g. "vm-00000042".
	ID string `json:"id"`
	// Type is the resource type, e.g. "aws_virtual_machine".
	Type string `json:"type"`
	// Region is the region the resource lives in.
	Region string `json:"region"`
	// Attrs holds every attribute, including computed ones.
	Attrs map[string]eval.Value `json:"-"`
	// CreatedAt and UpdatedAt are simulator timestamps.
	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
	// Generation versions Attrs and Region: every change to either bumps
	// it, and an (ID, Generation) pair is never reused, so a caller that
	// holds a resource at some Generation holds exactly what the cloud
	// holds at that Generation. Conditional reads (ResourceKey.IfGeneration)
	// rest on this.
	Generation int `json:"generation"`
}

// Clone returns a deep-enough copy (attribute values are immutable).
func (r *Resource) Clone() *Resource {
	cp := *r
	cp.Attrs = make(map[string]eval.Value, len(r.Attrs))
	for k, v := range r.Attrs {
		cp.Attrs[k] = v
	}
	return &cp
}

// Attr returns an attribute value, or eval.Null when absent.
func (r *Resource) Attr(name string) eval.Value {
	if v, ok := r.Attrs[name]; ok {
		return v
	}
	return eval.Null
}

// CreateRequest asks the cloud to provision a resource.
type CreateRequest struct {
	Type   string
	Region string
	Attrs  map[string]eval.Value
	// Principal identifies the caller for the activity log ("cloudless",
	// "legacy-script", a team name...). Drift detection keys off this.
	Principal string
	// IdempotencyKey, when non-empty, makes the create replay-safe: if a
	// resource was already provisioned under the same key (and still
	// exists), the cloud returns that resource instead of creating a
	// duplicate. This is how a crashed-and-restarted applier retries an
	// in-doubt create without orphaning the first attempt. Mirrors the
	// client-token mechanisms of real clouds (EC2 ClientToken, Azure
	// client-request-id).
	//
	// Crash recovery rests on this alone (internal/apply recover.go): a
	// cloud must answer a replayed key with the original resource for as
	// long as a crashed run's journal can wait for recovery. The sim keeps
	// keys for its lifetime.
	IdempotencyKey string
}

// UpdateRequest mutates attributes of an existing resource.
type UpdateRequest struct {
	Type      string
	ID        string
	Attrs     map[string]eval.Value
	Principal string
}

// API error codes, mirroring HTTP status semantics.
const (
	CodeInvalid   = 400
	CodeNotFound  = 404
	CodeConflict  = 409
	CodeThrottled = 429
	CodeInternal  = 500
	CodeQuota     = 402 // quota exceeded
)

// APIError is the error type every cloud operation returns on failure. Its
// Message is written the way real clouds write them — in cloud-level
// vocabulary that does not reference IaC constructs — because translating
// these messages back to configuration is the diagnoser's job (§3.5).
type APIError struct {
	Code      int    `json:"code"`
	Op        string `json:"op"`   // "create", "get", "update", "delete", "list"
	Type      string `json:"type"` // resource type
	ID        string `json:"id,omitempty"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	// RetryAfter is the server's backpressure hint on 429s: do not retry
	// sooner than this. Zero means no hint.
	RetryAfter time.Duration `json:"retry_after_ns,omitempty"`
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("cloud: %s %s %s: %s (code %d)", e.Op, e.Type, e.ID, e.Message, e.Code)
	}
	return fmt.Sprintf("cloud: %s %s: %s (code %d)", e.Op, e.Type, e.Message, e.Code)
}

// IsRetryable reports whether an error is a transient cloud error worth
// retrying (throttling or internal errors).
func IsRetryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable
	}
	return false
}

// IsNotFound reports whether an error is a 404.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeNotFound
}

// IsThrottled reports whether an error is a 429.
func IsThrottled(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeThrottled
}

// EventOp is the operation recorded in an activity-log event.
type EventOp string

// Activity log operations.
const (
	OpCreate EventOp = "create"
	OpUpdate EventOp = "update"
	OpDelete EventOp = "delete"
)

// Event is one activity-log entry.
type Event struct {
	// Seq is a monotonically increasing sequence number; log consumers
	// poll with "everything after seq N".
	Seq       int64     `json:"seq"`
	Time      time.Time `json:"time"`
	Op        EventOp   `json:"op"`
	Type      string    `json:"resource_type"`
	ID        string    `json:"resource_id"`
	Region    string    `json:"region"`
	Principal string    `json:"principal"`
	// Changed lists the attribute names touched by an update.
	Changed []string `json:"changed,omitempty"`
}

// Interface is the whole cloud control-plane contract: the seven single-item
// verbs below plus the bulk and long-poll verbs of its named parts. The
// in-memory simulator, the HTTP client, the provider runtime and every
// wrapper implement all of it, so a decorator that forgets a verb fails to
// compile instead of quietly running a different program.
type Interface interface {
	Create(ctx context.Context, req CreateRequest) (*Resource, error)
	Get(ctx context.Context, typ, id string) (*Resource, error)
	Update(ctx context.Context, req UpdateRequest) (*Resource, error)
	Delete(ctx context.Context, typ, id, principal string) error
	// List returns every resource of a type, ordered by ID; empty region
	// means all regions. It is ListPage with no limit.
	List(ctx context.Context, typ, region string) ([]*Resource, error)
	// Activity returns log events with Seq > afterSeq, in order.
	Activity(ctx context.Context, afterSeq int64) ([]Event, error)
	// Health reports a resource's readiness (provisioning/ready/degraded/
	// failed). Guarded applies probe it before declaring an op done.
	Health(ctx context.Context, typ, id string) (*HealthReport, error)

	BatchCreator
	BatchGetter
	PageLister
	ActivityWaiter
}

// ActivityWaiter is the long-poll part of Interface: block up to wait for
// events past afterSeq, returning (nil, nil) on a quiet timeout.
type ActivityWaiter interface {
	WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]Event, error)
}
