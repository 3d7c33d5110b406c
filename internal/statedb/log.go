package statedb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cloudless/internal/state"
	"cloudless/internal/wal"
)

// Commit-log layout inside the engine directory:
//
//	snapshot.json — full state at the last compaction (state JSON format)
//	wal.log       — commits since, each a CRC-framed JSON record in the
//	                shared internal/wal frame format (also used by the
//	                apply journal)
//
// Replay on open applies every intact record after the snapshot; a torn
// tail (short frame or checksum mismatch, the crash-mid-commit case) is
// dropped and the log truncated back to the last durable commit.
const (
	walLogName      = "wal.log"
	walSnapshotName = "snapshot.json"
	// compactEvery is the commit count between snapshot compactions.
	compactEvery = 64
)

// walRecord is the JSON payload of one framed commit.
type walRecord struct {
	Serial  int      `json:"serial"`
	Desc    string   `json:"desc,omitempty"`
	Deletes []string `json:"deletes,omitempty"`
	// Writes carries the batch's writes (and, when SetOutputs, the new
	// outputs) re-using the versioned state serialization.
	Writes     json.RawMessage `json:"writes,omitempty"`
	SetOutputs bool            `json:"set_outputs,omitempty"`
}

// logFile is what the commit log needs of its append-only file (an
// *os.File opened O_APPEND); tests substitute one whose calls fail.
type logFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// commitLog is the engine's optional durability: an fsynced append per
// commit, folded into snapshot.json every compactEvery commits. The engine's
// wmu guards it.
type commitLog struct {
	dir string
	f   logFile
	// size is the durable length of the log: every acknowledged record
	// lies below it.
	size         int64
	sinceCompact int
	// compactErr is the failure of the last compaction, nil once one
	// succeeds; close reports it.
	compactErr error
	// err, once set, fails every later append: the log is closed, or a
	// partial record could not be cut back out of it.
	err    error
	closed bool
}

// openDurable opens (or creates) an engine over the commit log in dir. When
// the directory already holds a snapshot or log records the durable contents
// win and seed is ignored; otherwise the seed becomes the initial snapshot.
func openDurable(dir string, seed *state.State) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statedb: create wal dir: %w", err)
	}
	snapPath, logPath := filepath.Join(dir, walSnapshotName), filepath.Join(dir, walLogName)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("statedb: read wal log: %w", err)
	}
	var base *state.State
	switch raw, err := os.ReadFile(snapPath); {
	case err == nil:
		if base, err = state.Decode(raw); err != nil {
			return nil, fmt.Errorf("statedb: decode wal snapshot: %w", err)
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("statedb: read wal snapshot: %w", err)
	case len(data) > 0:
		base = state.New()
	default:
		// Make the seed durable immediately so a reopen before the first
		// commit recovers the same serial.
		base = seed
		if err := base.SaveFile(snapPath); err != nil {
			return nil, err
		}
	}
	e := newEngine(base)

	// Replay every intact record above the snapshot's serial, stopping at
	// the first torn, corrupt or undecodable frame.
	durable := 0
	for {
		payload, next, ok := wal.Next(data, durable)
		if !ok || !e.replay(payload) {
			break
		}
		durable = next
	}
	if durable < len(data) {
		if err := os.Truncate(logPath, int64(durable)); err != nil {
			return nil, fmt.Errorf("statedb: truncate torn wal tail: %w", err)
		}
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("statedb: open wal log: %w", err)
	}
	e.log = &commitLog{dir: dir, f: f, size: int64(durable)}
	return e, nil
}

// replay applies one logged commit, reporting false for a payload that does
// not decode. Records at or below the engine's serial are already in the
// snapshot.
func (e *Engine) replay(payload []byte) bool {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return false
	}
	if rec.Serial <= e.serial {
		return true
	}
	ws := state.New()
	if len(rec.Writes) > 0 {
		var err error
		if ws, err = state.Decode(rec.Writes); err != nil {
			return false
		}
	}
	deletes := make(map[string]bool, len(rec.Deletes))
	for _, addr := range rec.Deletes {
		deletes[addr] = true
	}
	e.apply(rec.Serial, ws.Resources, deletes, ws.Outputs, rec.SetOutputs)
	return true
}

// append makes one commit durable: frame, write, fsync. writes are the
// batch's resources, already copied and addressed.
func (l *commitLog) append(serial int, b *Batch, writes map[string]*state.ResourceState) error {
	if l.err != nil {
		return l.err
	}
	rec := walRecord{Serial: serial, Desc: b.Desc, SetOutputs: b.SetOutputs}
	for addr := range b.Deletes {
		rec.Deletes = append(rec.Deletes, addr)
	}
	ws := &state.State{Serial: serial, Resources: writes}
	if b.SetOutputs {
		ws.Outputs = b.Outputs
	}
	raw, err := ws.Encode()
	if err != nil {
		return fmt.Errorf("statedb: encode wal record: %w", err)
	}
	// Encode emits indented JSON; compact it so frames stay small.
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return fmt.Errorf("statedb: encode wal record: %w", err)
	}
	rec.Writes = buf.Bytes()
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("statedb: encode wal record: %w", err)
	}
	frame := wal.Encode(payload)
	if _, err = l.f.Write(frame); err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		err = fmt.Errorf("statedb: append wal record: %w", err)
		// Replay stops at the first bad frame, so a partial one left here
		// would hide every commit acknowledged after it: cut it out, or
		// stop accepting commits.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("%w; commit log unusable, cannot cut the partial record: %v", err, terr)
			return l.err
		}
		return err
	}
	l.size += int64(len(frame))
	l.sinceCompact++
	return nil
}

// compact folds the log into snapshot.json and resets it. The snapshot is
// on disk (file and directory fsynced) before the log is cut; records left
// behind by a failed cut are at or below its serial and skipped by replay.
func (l *commitLog) compact(e *Engine) error {
	snap, err := e.stateAt(0, false)
	if err != nil {
		return err
	}
	if err := snap.SaveFile(filepath.Join(l.dir, walSnapshotName)); err != nil {
		return fmt.Errorf("statedb: compact wal: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("statedb: reset wal log: %w", err)
	}
	l.size, l.sinceCompact = 0, 0
	return nil
}

// close syncs and releases the log file.
func (l *commitLog) close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	l.err = errors.New("statedb: engine is closed")
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return errors.Join(err, l.compactErr)
}
