// Apply journal: a durable write-ahead record of every operation an apply
// begins and finishes, kept in a wal.Log (which owns framing, replay and the
// torn-tail contract). What this file adds is the record schema and the
// ordering that makes applies crash-safe:
//
//  1. A "begin" record is journaled and fsynced BEFORE the op touches the
//     cloud. A crash can therefore never leave a cloud mutation the journal
//     does not know about.
//  2. A "done" record is appended after the op (no fsync — losing one only
//     makes recovery re-check an op that turns out to be complete, which the
//     idempotency machinery absorbs).
//
// An op with a begin but no done is "in doubt": the process died somewhere
// between issuing the call and recording the response. Recovery re-issues
// in-doubt creates under their original idempotency keys and re-checks
// updates/deletes (see recover.go), which rests on the cloud answering a
// replayed key with the original resource (cloud.CreateRequest). Older
// journals also hold an "intents" frame after the meta record; replay skips
// it.
package apply

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/wal"
)

// ErrJournalKilled is returned by appends after Kill — the chaos harness's
// stand-in for the process being dead. An applier seeing it must abort the
// op before touching the cloud, exactly as a dead process would.
var ErrJournalKilled = errors.New("apply: journal killed (simulated crash)")

// Journal record kinds.
const (
	recMeta  = "meta"
	recBegin = "begin"
	recDone  = "done"
	recFail  = "fail"
)

// Meta identifies one apply run. Its ID seeds every idempotency key
// (ID + "/" + addr), so a restarted recovery retries creates under the keys
// the crashed run used.
type Meta struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind"` // "apply", "destroy", "rollback"
	CreatedAt  time.Time `json:"created_at"`
	BaseSerial int       `json:"base_serial"`
	Principal  string    `json:"principal"`
}

// OpRecord is a begin or done entry for one operation. For begin, ID is the
// pre-existing target (update/delete/replace) and Attrs the resolved values
// about to be sent; for done, ID/Region/Attrs describe the resulting
// resource (empty for deletes).
type OpRecord struct {
	Addr    string         `json:"addr"`
	Action  string         `json:"action"`
	Type    string         `json:"type"`
	Region  string         `json:"region,omitempty"`
	ID      string         `json:"id,omitempty"`
	IdemKey string         `json:"idem_key,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Deps    []string       `json:"deps,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// journalRecord is the JSON payload of one frame.
type journalRecord struct {
	Kind string    `json:"kind"`
	Meta *Meta     `json:"meta,omitempty"`
	Op   *OpRecord `json:"op,omitempty"`
}

// Journal is the write side, safe for concurrent use by the apply walk.
type Journal struct {
	// mu is held shared across an append, so the walkers' begin records
	// share fsyncs in the log, and exclusively by Kill and Close, which
	// thereby wait out every append in flight.
	mu     sync.RWMutex
	log    *wal.Log
	path   string
	meta   Meta
	killed bool
}

// NewJournal creates a journal file (dropping any stale one — the caller
// must have recovered it first) and durably writes the meta record.
func NewJournal(path string, meta Meta) (*Journal, error) {
	if meta.ID == "" {
		meta.ID = fmt.Sprintf("%s-%d", meta.Kind, time.Now().UnixNano())
	}
	if meta.Kind == "" {
		meta.Kind = "apply"
	}
	if meta.CreatedAt.IsZero() {
		meta.CreatedAt = time.Now()
	}
	// Accepting no frame of a stale journal cuts it back to empty.
	log, err := wal.Open(path, func([]byte) bool { return false })
	if err != nil {
		return nil, fmt.Errorf("apply: create journal: %w", err)
	}
	j := &Journal{log: log, path: path, meta: meta}
	if err := j.append(journalRecord{Kind: recMeta, Meta: &meta}, true); err != nil {
		log.Close(false)
		return nil, err
	}
	return j, nil
}

// Meta returns the run identity.
func (j *Journal) Meta() Meta { return j.meta }

// IdemKey derives the idempotency key for a create at addr. Stable across
// crash and recovery of the same run — that stability is the whole point.
func (j *Journal) IdemKey(addr string) string { return j.meta.ID + "/" + addr }

// Begin durably records that an op is about to touch the cloud. MUST be
// fsynced before the call goes out: this is the invariant recovery leans on.
func (j *Journal) Begin(op OpRecord) error {
	op.Action = normalizeAction(op.Action)
	return j.append(journalRecord{Kind: recBegin, Op: &op}, true)
}

// Done records that an op completed, with the resulting resource identity.
// Not fsynced: losing a done record is safe (recovery re-checks the op).
func (j *Journal) Done(op OpRecord) error {
	op.Action = normalizeAction(op.Action)
	return j.append(journalRecord{Kind: recDone, Op: &op}, false)
}

// Fail records a definitive op failure (the cloud rejected it; nothing was
// mutated or the error is terminal). Best-effort, not fsynced.
func (j *Journal) Fail(addr, action string, err error) error {
	return j.append(journalRecord{Kind: recFail,
		Op: &OpRecord{Addr: addr, Action: normalizeAction(action), Error: err.Error()}}, false)
}

func normalizeAction(a string) string {
	if a == "" {
		return plan.ActionCreate.String()
	}
	return a
}

func (j *Journal) append(rec journalRecord, sync bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("apply: encode journal record: %w", err)
	}
	j.mu.RLock()
	defer j.mu.RUnlock()
	if j.killed {
		return ErrJournalKilled
	}
	if err := j.log.Append(payload, sync); err != nil {
		return fmt.Errorf("apply: journal: %w", err)
	}
	return nil
}

// Close syncs and closes the file, leaving it on disk for recovery to
// inspect.
func (j *Journal) Close() error { return j.close(true) }

func (j *Journal) close(sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close(sync && !j.killed)
}

// Discard closes and deletes the journal — called only after the apply's
// outcome is durably committed to the golden state, at which point the
// journal has nothing left to say and nothing worth flushing.
func (j *Journal) Discard() error {
	if err := j.close(false); err != nil {
		return err
	}
	if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Kill simulates the process dying: every subsequent append fails with
// ErrJournalKilled and nothing more reaches the disk. Chaos harness only.
func (j *Journal) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killed = true
}

// KillTorn is Kill preceded by a half-written frame, simulating death in the
// middle of a journal write. Replay must drop the torn tail.
func (j *Journal) KillTorn() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.killed {
		frame := wal.Encode([]byte(`{"kind":"done","op":{"addr":"torn"}}`))
		j.log.Wrap(func(f wal.File) wal.File {
			f.Write(frame[:len(frame)/2])
			return f
		})
	}
	j.killed = true
}

// OpStatus aggregates the journal's knowledge of one op.
type OpStatus struct {
	Begin *OpRecord
	Done  *OpRecord
	// FailError is non-empty when the op failed definitively.
	FailError string
}

// InDoubt reports whether the op started but never (durably) finished.
func (s *OpStatus) InDoubt() bool {
	return s.Begin != nil && s.Done == nil && s.FailError == ""
}

// JournalState is the replayed contents of a journal file.
type JournalState struct {
	Meta Meta
	// Ops indexes begin/done/fail records by address.
	Ops map[string]*OpStatus
	// Path is the file the state was read from.
	Path string
}

// InDoubt lists addresses whose ops began but never durably finished, in
// address order.
func (js *JournalState) InDoubt() []string {
	var out []string
	for addr, st := range js.Ops {
		if st.InDoubt() {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// ReadJournal replays a journal file, dropping any torn tail and skipping
// records of a kind it does not read (an older journal's intents frame). A
// missing file returns (nil, nil): nothing to recover.
func ReadJournal(path string) (*JournalState, error) {
	js := &JournalState{Ops: map[string]*OpStatus{}, Path: path}
	_, _, err := wal.Replay(path, func(payload []byte) bool {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false // CRC-intact but undecodable: treat as torn
		}
		switch rec.Kind {
		case recMeta:
			if rec.Meta != nil {
				js.Meta = *rec.Meta
			}
		case recBegin, recDone, recFail:
			if rec.Op == nil {
				break
			}
			st := js.Ops[rec.Op.Addr]
			if st == nil {
				st = &OpStatus{}
				js.Ops[rec.Op.Addr] = st
			}
			op := *rec.Op
			switch rec.Kind {
			case recBegin:
				// A fresh begin supersedes any earlier completed op on the
				// same address (a replace is journaled as its destroy
				// wave's delete op followed by a create op under one addr).
				st.Begin = &op
				st.Done = nil
				st.FailError = ""
			case recDone:
				st.Done = &op
			case recFail:
				st.FailError = op.Error
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("apply: read journal: %w", err)
	}
	if js.Meta.ID == "" && len(js.Ops) == 0 {
		// No file, or nothing durable survived (e.g. a journal torn inside
		// its first frame): treat as absent.
		return nil, nil
	}
	return js, nil
}

// AttrsOut converts resolved attribute values to their wire (JSON) form for
// journaling. Unknown sentinels survive the round-trip, though by the time
// an op begins every attr must already be known.
func AttrsOut(attrs map[string]eval.Value) map[string]any {
	out := make(map[string]any, len(attrs))
	for k, v := range attrs {
		out[k] = eval.ToGo(v)
	}
	return out
}

// AttrsIn converts journaled attributes back to eval values.
func AttrsIn(attrs map[string]any) map[string]eval.Value {
	out := make(map[string]eval.Value, len(attrs))
	for k, v := range attrs {
		out[k] = eval.FromGoWithUnknowns(v)
	}
	return out
}
