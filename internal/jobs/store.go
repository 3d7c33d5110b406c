// Durable job store (DESIGN.md S28). The queue itself is an in-memory
// scheduler; this file gives cloudlessd a crash-safe ledger under it: every
// job transition (submitted -> running -> terminal) is appended to a
// per-tenant wal.Log and fsynced, so a SIGKILL'd daemon can replay the
// journals at startup and rebuild its entire job table — queued jobs are
// re-enqueued, jobs that were mid-flight are routed through recovery, and a
// client re-polling a pre-crash job ID sees the real outcome instead of a
// 404.
//
// Record format: each frame's payload is one JSON StoredJob snapshot (the
// full folded state at that transition, not a delta). Replay folds by job
// ID with last-record-wins, which makes the fold trivially idempotent and
// keeps torn-tail and failed-write handling entirely inside internal/wal.
// Terminal records past the retention cap are compacted away by rewriting
// the journal once dead frames dominate, so a long-lived daemon's journal
// stays bounded.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cloudless/internal/wal"
)

// storeFile is the per-tenant journal filename under Root/<tenant>/.
const storeFile = "jobs.journal"

// StoredJob is the durable snapshot of one job at one transition. It is
// both the on-disk payload and what Replay hands back after folding.
type StoredJob struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Kind    string `json:"kind"`
	Status  Status `json:"status"`
	IdemKey string `json:"idem_key,omitempty"`
	// Params is the submitter's request, opaque to the queue. The server
	// stores the wire JobRequest here so restart recovery can rebuild the
	// work function for jobs that still need to run.
	Params    json.RawMessage `json:"params,omitempty"`
	Cost      float64         `json:"cost,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started,omitempty"`
	Finished  time.Time       `json:"finished,omitempty"`
	Err       string          `json:"error,omitempty"`
	// Result is the JSON-rendered job result for terminal records ("" when
	// the result did not marshal — the status and error still persist).
	Result json.RawMessage `json:"result,omitempty"`
}

// StoreOptions tune OpenStore.
type StoreOptions struct {
	// MaxFinishedPerTenant mirrors the queue's terminal-job retention cap
	// (default 256): compaction drops the oldest terminal jobs past it.
	MaxFinishedPerTenant int
	// NoSync disables fsync (tests only; the daemon always syncs).
	NoSync bool
}

// Store manages the per-tenant job journals under one root directory
// (Root/<tenant>/jobs.journal — the same layout the workspace manager uses
// for its own artifacts). Safe for concurrent use.
type Store struct {
	root string
	opts StoreOptions

	mu      sync.Mutex
	tenants map[string]*tenantLog
	closed  bool
}

// tenantLog is one tenant's open journal plus the folded live view that
// drives compaction.
type tenantLog struct {
	log    *wal.Log
	live   map[string]*StoredJob // folded job state, retention already applied
	order  []string              // terminal job IDs, oldest first
	frames int                   // frames in the file since last compaction
	// compactErr is the failure of the last compaction, nil once one
	// succeeds; Close reports it.
	compactErr error
}

// OpenStore opens (or creates) a job store rooted at dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: store root is required")
	}
	if opts.MaxFinishedPerTenant <= 0 {
		opts.MaxFinishedPerTenant = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	return &Store{root: dir, opts: opts, tenants: map[string]*tenantLog{}}, nil
}

// tenantPath returns the journal path for a tenant. Tenant names are
// workspace names, already validated path-safe by workspace.ValidName; a
// name that still smuggles a separator is rejected.
func (s *Store) tenantPath(tenant string) (string, error) {
	if tenant == "" || tenant != filepath.Base(tenant) || tenant == "." || tenant == ".." {
		return "", fmt.Errorf("jobs: invalid tenant %q", tenant)
	}
	return filepath.Join(s.root, tenant, storeFile), nil
}

// open returns the tenant's log, replaying the existing journal on first
// touch so the live view (and compaction bookkeeping) starts correct.
func (s *Store) open(tenant string) (*tenantLog, error) {
	if tl := s.tenants[tenant]; tl != nil {
		return tl, nil
	}
	path, err := s.tenantPath(tenant)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	tl := &tenantLog{live: map[string]*StoredJob{}}
	tl.log, err = wal.Open(path, func(payload []byte) bool {
		var j StoredJob
		if json.Unmarshal(payload, &j) == nil && j.ID != "" {
			tl.live[j.ID] = &j
		}
		tl.frames++
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	for _, j := range jobsInOrder(tl.live) {
		if j.Status.Terminal() {
			tl.order = append(tl.order, j.ID)
		}
	}
	s.tenants[tenant] = tl
	s.retire(tl)
	return tl, nil
}

// jobsInOrder sorts folded jobs by ID (zero-padded sequence numbers, so
// lexicographic order is submission order).
func jobsInOrder(live map[string]*StoredJob) []StoredJob {
	out := make([]StoredJob, 0, len(live))
	for _, j := range live {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Append durably records one job transition: the frame is written and
// fsynced before Append returns, so an acknowledged submit (or an observed
// state change) survives a SIGKILL immediately after.
func (s *Store) Append(j StoredJob) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("jobs: store closed")
	}
	tl, err := s.open(j.Tenant)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("jobs: encode record: %w", err)
	}
	if err := tl.log.Append(payload, !s.opts.NoSync); err != nil {
		return fmt.Errorf("jobs: append record: %w", err)
	}
	tl.frames++
	if prev := tl.live[j.ID]; prev == nil || !prev.Status.Terminal() {
		if j.Status.Terminal() {
			tl.order = append(tl.order, j.ID)
		}
	}
	tl.live[j.ID] = &j
	s.retire(tl)
	// The record is durable, so the append has succeeded whatever upkeep
	// does: a failed compaction is kept for Close and retried by the next
	// append while the journal keeps growing.
	if tl.frames > 2*len(tl.live)+64 {
		tl.compactErr = s.compact(tl)
	}
	return nil
}

// retire drops the oldest terminal jobs past the retention cap from the
// live view; the dead frames are reclaimed by the next compaction.
func (s *Store) retire(tl *tenantLog) {
	for len(tl.order) > s.opts.MaxFinishedPerTenant {
		delete(tl.live, tl.order[0])
		tl.order = tl.order[1:]
	}
}

// compact rewrites the journal down to its live jobs. Append calls it once
// dead frames dominate: more than twice the live-job count (plus slack so
// small journals never churn).
func (s *Store) compact(tl *tenantLog) error {
	payloads := make([][]byte, 0, len(tl.live))
	for _, j := range jobsInOrder(tl.live) {
		payload, err := json.Marshal(j)
		if err != nil {
			return fmt.Errorf("jobs: compact: %w", err)
		}
		payloads = append(payloads, payload)
	}
	if err := tl.log.Rewrite(payloads); err != nil {
		return fmt.Errorf("jobs: compact: %w", err)
	}
	tl.frames = len(payloads)
	return nil
}

// Replay folds a tenant's journal into its job history, oldest submission
// first. Safe to call for tenants with no journal (returns nil).
func (s *Store) Replay(tenant string) ([]StoredJob, error) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tl, err := s.open(tenant)
	if err != nil {
		return nil, err
	}
	jobs := jobsInOrder(tl.live)
	// The reconciler checkpoint shares the journal under a reserved ID; it
	// is resume state, not a job, so replay must not hand it to the queue.
	out := jobs[:0]
	for _, j := range jobs {
		if j.ID != reconcilerID {
			out = append(out, j)
		}
	}
	return out, nil
}

// Tenants lists every tenant with a job journal under the root.
func (s *Store) Tenants() ([]string, error) {
	if s == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(s.root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.root, e.Name(), storeFile)); err == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Drop closes and deletes a tenant's journal (workspace deletion): a later
// workspace reusing the name must not inherit the old one's job history.
func (s *Store) Drop(tenant string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tl := s.tenants[tenant]; tl != nil {
		tl.log.Close(false)
		delete(s.tenants, tenant)
	}
	path, err := s.tenantPath(tenant)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Close releases every open journal and reports a compaction that failed and
// has not succeeded since. Appends after Close fail.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for name, tl := range s.tenants {
		if err := errors.Join(tl.log.Close(false), tl.compactErr); err != nil && first == nil {
			first = err
		}
		delete(s.tenants, name)
	}
	return first
}
