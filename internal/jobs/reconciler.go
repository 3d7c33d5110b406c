package jobs

import "encoding/json"

// reconcilerID is the reserved record ID that carries a tenant's reconciler
// checkpoint inside the same jobs journal. Riding the journal (instead of a
// sibling file) buys the checkpoint the journal's whole durability story —
// CRC framing, fsync, torn-tail truncation, crash-safe compaction — for
// free. The record is non-terminal so retention never retires it, it
// survives compaction like any live record, and Replay filters it out so
// the queue never mistakes it for a job.
const reconcilerID = "_reconciler"

// SaveReconciler durably records a tenant's reconciler checkpoint (an
// opaque JSON document: enabled flag, mode, acknowledged watermark,
// full-scan period).
// Last write wins, exactly like any other journal record.
func (s *Store) SaveReconciler(tenant string, checkpoint json.RawMessage) error {
	return s.Append(StoredJob{
		ID:     reconcilerID,
		Tenant: tenant,
		Kind:   "reconciler",
		Status: StatusRunning,
		Params: checkpoint,
	})
}

// LoadReconciler returns the tenant's last saved reconciler checkpoint, or
// nil when none was ever saved.
func (s *Store) LoadReconciler(tenant string) (json.RawMessage, error) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tl, err := s.open(tenant)
	if err != nil {
		return nil, err
	}
	j := tl.live[reconcilerID]
	if j == nil || len(j.Params) == 0 {
		return nil, nil
	}
	cp := make(json.RawMessage, len(j.Params))
	copy(cp, j.Params)
	return cp, nil
}
