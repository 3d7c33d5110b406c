package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is what a Log needs of its append-only file (an *os.File opened
// O_APPEND); Wrap substitutes one whose calls fail.
type File interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// Log is one append-only file of frames, and the crash contract every durable
// log in the repository shares:
//
//   - Open replays the intact frames its fold accepts and cuts the rest off
//     the file, so a record is either replayed or gone;
//   - once Append(payload, true) returns nil the record survives a crash; a
//     failed or short write is cut back out, so a partial frame never hides
//     the records acknowledged after it;
//   - when the file can no longer be trusted (that cut failed, a rewrite lost
//     it, it is closed) every later call returns the same error.
//
// Callers own the payload encoding, the fold, when to compact, and locking.
type Log struct {
	path string
	f    File
	size int64 // durable length: every acknowledged frame lies below it
	err  error // sticky
}

var errClosed = errors.New("wal: log is closed")

func openAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Replay folds the intact frames of the file at path, a missing one counting
// as empty, and leaves the file alone: the read-only half of Open. It returns
// the length of the prefix fold accepted and the length of the file.
func Replay(path string, fold func(payload []byte) bool) (durable, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	Scan(data, func(payload []byte) bool {
		if !fold(payload) {
			return false
		}
		durable += int64(HeaderSize + len(payload))
		return true
	})
	return durable, int64(len(data)), nil
}

// Open opens the log at path, creating it if absent, hands the payload of
// every intact frame to fold in order, and cuts the file after the last one
// fold accepted: a torn tail, or a frame the caller cannot decode (fold
// returns false), ends the replay and is dropped with all behind it.
func Open(path string, fold func(payload []byte) bool) (*Log, error) {
	durable, total, err := Replay(path, fold)
	if err != nil {
		return nil, err
	}
	f, err := openAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if durable < total {
		if err := f.Truncate(durable); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	return &Log{path: path, f: f, size: durable}, nil
}

// Size returns the durable length of the log in bytes.
func (l *Log) Size() int64 { return l.size }

// Wrap replaces the log's file with wrap(file). It is the fault-injection
// seam: tests substitute a Faulty file, the apply chaos harness tears a
// frame through it.
func (l *Log) Wrap(wrap func(File) File) { l.f = wrap(l.f) }

// Append frames payload and writes it, fsyncing when sync is set. On error
// nothing was appended: the partial frame is cut back out, or the log goes
// sticky-failed when even that fails.
func (l *Log) Append(payload []byte, sync bool) error {
	if l.err != nil {
		return l.err
	}
	frame := Encode(payload)
	_, err := l.f.Write(frame)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		err = fmt.Errorf("wal: append to %s: %w", l.path, err)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("%w; log unusable, cannot cut the partial record: %v", err, terr)
			return l.err
		}
		return err
	}
	l.size += int64(len(frame))
	return nil
}

// Reset empties the log, for a caller whose snapshot already covers every
// record in it — so those left behind by a failed Reset do no harm.
func (l *Log) Reset() error {
	if l.err != nil {
		return l.err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset %s: %w", l.path, err)
	}
	l.size = 0
	return nil
}

// Rewrite atomically replaces the log's contents with one frame per payload
// and reopens it. An error before the rename leaves the old log in place and
// usable; after it the open file is unlinked, so the log goes sticky-failed
// rather than acknowledge appends into a file no restart will read.
func (l *Log) Rewrite(payloads [][]byte) error {
	if l.err != nil {
		return l.err
	}
	var data []byte
	for _, p := range payloads {
		data = append(data, Encode(p)...)
	}
	if err := replaceFile(l.path, data, 0o644); err != nil {
		return err
	}
	l.f.Close()
	err := syncDir(l.path)
	if err == nil {
		l.f, err = openAppend(l.path)
	}
	if err != nil {
		l.err = fmt.Errorf("wal: rewrite %s: log unusable: %w", l.path, err)
		return l.err
	}
	l.size = int64(len(data))
	return nil
}

// Close releases the file, fsyncing first when sync is set — a caller that
// keeps the file flushes the appends it made without sync. Closing twice is
// harmless.
func (l *Log) Close(sync bool) error {
	if errors.Is(l.err, errClosed) {
		return nil
	}
	var err error
	if sync && l.err == nil {
		err = l.f.Sync()
	}
	l.err = fmt.Errorf("%w: %s", errClosed, l.path)
	return errors.Join(err, l.f.Close())
}

// WriteFileAtomic replaces path with data: the temp file (path + ".tmp") is
// fsynced before the rename and the directory after it, so once it returns
// nil a power loss cannot leave path missing, old or half-written.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := replaceFile(path, data, perm); err != nil {
		return err
	}
	return syncDir(path)
}

// replaceFile writes and fsyncs the temp file and renames it over path,
// removing it on every error path.
func replaceFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err == nil {
		if _, err = f.Write(data); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	return nil
}

// syncDir makes a rename of path durable.
func syncDir(path string) error {
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir of %s: %w", path, err)
	}
	return nil
}
