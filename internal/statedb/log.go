package statedb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cloudless/internal/state"
	"cloudless/internal/wal"
)

// Commit-log layout inside the engine directory:
//
//	snapshot.json — full state at the floor of the time machine's window
//	                (state JSON format)
//	wal.log       — commits since, one JSON walRecord per wal.Log frame
//
// Open applies the records above the snapshot's serial — skipping any at or
// below it, which a compaction that failed between its two files leaves
// behind — and so rebuilds the window the engine held when it closed;
// wal.Log drops the torn tail of a crash mid-commit.
const (
	walLogName      = "wal.log"
	walSnapshotName = "snapshot.json"
	// compactEvery is the commit count between moves of the window's floor:
	// the version chains are trimmed (with or without a log) and the two
	// files follow. The time machine reaches back that many commits at least,
	// twice that at most; there is no deeper archive, because one more file
	// pair would be a second store with its own retention to get right.
	compactEvery = 64
)

// walRecord is the JSON payload of one framed commit, as append writes it.
type walRecord struct {
	Serial  int      `json:"serial"`
	Desc    string   `json:"desc,omitempty"`
	Deletes []string `json:"deletes,omitempty"`
	// Writes carries the batch's writes (and, when SetOutputs, the new
	// outputs) re-using the versioned state serialization.
	Writes     json.RawMessage `json:"writes,omitempty"`
	SetOutputs bool            `json:"set_outputs,omitempty"`
}

// recordFields are walRecord's JSON field names, in the order readRecord
// numbers them.
var recordFields = []string{"serial", "desc", "deletes", "writes", "set_outputs"}

// loggedCommit is a walRecord as replay reads it: one pass over the payload
// (state.Reader) decodes the writes with the rest, so they are never held as
// raw bytes.
type loggedCommit struct {
	serial     int
	desc       string
	deletes    []string
	setOutputs bool
	writes     *state.State // nil when the record has none
}

// readRecord decodes one payload for a replay over a state at serial floor.
// It refuses exactly what json.Unmarshal into walRecord refused, and a
// record above floor whose writes do not decode; a record at or below floor
// is replay's to skip, so its writes are not held against it.
func readRecord(payload []byte, floor int) (loggedCommit, error) {
	var (
		c         loggedCommit
		writesErr error
	)
	r := state.NewReader(payload)
	r.Fields(recordFields, func(f int) {
		switch f {
		case 0:
			r.Int(&c.serial)
		case 1:
			r.String(&c.desc)
		case 2:
			c.deletes = r.Strings(c.deletes)
		case 3:
			c.writes, writesErr = r.State()
		case 4:
			r.Bool(&c.setOutputs)
		}
	})
	if err := r.Finish(); err != nil {
		return c, err
	}
	if c.serial > floor && writesErr != nil {
		return c, writesErr
	}
	return c, nil
}

// readSerial reads only a payload's serial, refusing what json.Unmarshal
// into a struct of that one field refused.
func readSerial(payload []byte) (serial int, err error) {
	r := state.NewReader(payload)
	r.Fields(recordFields[:1], func(int) { r.Int(&serial) })
	return serial, r.Finish()
}

// commitLog is the engine's optional durability: an fsynced wal.Log append
// per commit, with snapshot.json moved up to the window's floor whenever the
// chains are trimmed. The engine's wmu guards it.
type commitLog struct {
	*wal.Log
	dir string
	// compactErr is the failure of the last compaction, nil once one
	// succeeds; Engine.Close reports it.
	compactErr error
}

// openDurable opens (or creates) an engine over the commit log in dir. When
// the directory already holds a snapshot or log records the durable contents
// win and seed is ignored; otherwise the seed becomes the initial snapshot.
func openDurable(dir string, seed *state.State) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statedb: create wal dir: %w", err)
	}
	snapPath, logPath := filepath.Join(dir, walSnapshotName), filepath.Join(dir, walLogName)
	var base *state.State
	switch raw, err := os.ReadFile(snapPath); {
	case err == nil:
		if base, err = state.Decode(raw); err != nil {
			return nil, fmt.Errorf("statedb: decode wal snapshot: %w", err)
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("statedb: read wal snapshot: %w", err)
	default:
		if fi, err := os.Stat(logPath); err == nil && fi.Size() > 0 {
			base = state.New()
			break
		}
		// Make the seed durable immediately so a reopen before the first
		// commit recovers the same serial.
		base = seed
		if err := base.SaveFile(snapPath); err != nil {
			return nil, err
		}
	}
	e := newEngine(base)
	// Replay every intact record above the snapshot's serial; the log is
	// cut at the first torn, corrupt or undecodable frame.
	log, err := wal.Open(logPath, e.replay)
	if err != nil {
		return nil, fmt.Errorf("statedb: %w", err)
	}
	e.log = &commitLog{Log: log, dir: dir}
	return e, nil
}

// replay applies one logged commit, reporting false for a payload that does
// not decode. Records at or below the engine's serial are already in the
// snapshot.
func (e *Engine) replay(payload []byte) bool {
	c, err := readRecord(payload, e.serial)
	if err != nil {
		return false
	}
	if c.serial <= e.serial {
		return true
	}
	ws := c.writes
	if ws == nil {
		ws = state.New()
	}
	deletes := make(map[string]bool, len(c.deletes))
	for _, addr := range c.deletes {
		deletes[addr] = true
	}
	e.apply(c.serial, c.desc, ws.Resources, deletes, ws.Outputs, c.setOutputs)
	return true
}

// append makes one commit durable: frame, write, fsync. writes are the
// batch's resources, already copied and addressed.
func (l *commitLog) append(serial int, b *Batch, writes map[string]*state.ResourceState) error {
	rec := walRecord{Serial: serial, Desc: b.Desc, SetOutputs: b.SetOutputs}
	for addr := range b.Deletes {
		rec.Deletes = append(rec.Deletes, addr)
	}
	ws := &state.State{Serial: serial, Resources: writes}
	if b.SetOutputs {
		ws.Outputs = b.Outputs
	}
	raw, err := ws.EncodeCompact()
	if err != nil {
		return fmt.Errorf("statedb: encode wal record: %w", err)
	}
	rec.Writes = raw
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("statedb: encode wal record: %w", err)
	}
	if err := l.Append(payload, true); err != nil {
		return fmt.Errorf("statedb: %w", err)
	}
	return nil
}

// compact moves the files up to the engine's floor: snapshot.json becomes the
// state at e.oldest, then the log is rewritten to the frames above it, byte
// for byte. The snapshot is on disk (file and directory fsynced) before the
// log is replaced; the records a failed rewrite leaves behind are at or below
// its serial and skipped by replay.
func (l *commitLog) compact(e *Engine) error {
	floor := e.oldest // moved only under wmu, which the caller holds
	snap, err := e.Snapshot(floor)
	if err != nil {
		return err
	}
	if err := snap.SaveFile(filepath.Join(l.dir, walSnapshotName)); err != nil {
		return fmt.Errorf("statedb: compact wal: %w", err)
	}
	var keep [][]byte
	_, _, err = wal.Replay(filepath.Join(l.dir, walLogName), func(payload []byte) bool {
		serial, err := readSerial(payload)
		if err != nil {
			return false
		}
		if serial > floor {
			keep = append(keep, payload)
		}
		return true
	})
	if err == nil {
		err = l.Rewrite(keep)
	}
	if err != nil {
		return fmt.Errorf("statedb: compact wal: %w", err)
	}
	return nil
}
