package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
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
// A Log is safe for concurrent use, and concurrent Append(payload, true)
// calls share fsyncs (group commit): each returns only after an fsync that
// started after its own frame was written has finished, so the guarantee is
// per record whatever the company. One of the waiting appenders runs the
// fsync, outside the lock, for every frame written so far; there is no timer
// and no batch size, and an appender with no company pays one write and one
// fsync. When an fsync fails, every frame above the durable length fails with
// it and is cut out. Rewrite, Close and Wrap wait for the appends
// in flight.
//
// Callers own the payload encoding, the fold and when to compact.
type Log struct {
	path string

	// gate is held shared by an Append from its write to its return, and
	// exclusively by the calls that replace, cut or close the file.
	gate sync.RWMutex
	mu   sync.Mutex
	f    File
	size int64 // durable length: every acknowledged frame lies below it
	// end is the file's length. Frames in [size, end) wait for the fsync that
	// acknowledges them (or rode in behind one without asking for it).
	end int64
	// cur is the group whose fsync is running, next the one gathering behind
	// it; either may be nil.
	cur, next *syncGroup
	err       error // sticky
}

// syncGroup is the appenders one fsync acknowledges: those whose frames were
// written before it started. The first to join runs the fsync, once the one
// before it has returned; the rest wait for done.
type syncGroup struct {
	done chan struct{} // closed once err is final
	err  error
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
	return &Log{path: path, f: f, size: durable, end: durable}, nil
}

// Size returns the durable length of the log in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// lockIdle waits out the appends in flight and keeps new ones out, so the
// caller may replace, cut or close the file; unlockIdle lets them back in.
func (l *Log) lockIdle() {
	l.gate.Lock()
	l.mu.Lock()
}

func (l *Log) unlockIdle() {
	l.mu.Unlock()
	l.gate.Unlock()
}

// Wrap replaces the log's file with wrap(file). It is the fault-injection
// seam: tests substitute a Faulty file, the apply chaos harness tears a
// frame through it.
func (l *Log) Wrap(wrap func(File) File) {
	l.lockIdle()
	defer l.unlockIdle()
	l.f = wrap(l.f)
}

// Append frames payload and writes it; with sync set it returns once the
// frame is on disk. On error nothing was appended: the frame is cut back
// out, or the log goes sticky-failed when even that fails. Without sync it
// never waits for the disk, and the frame has no promise to outlive a crash
// or a failed fsync of the frames around it.
func (l *Log) Append(payload []byte, sync bool) error {
	frame := Encode(payload)
	l.gate.RLock()
	defer l.gate.RUnlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(frame); err != nil {
		return l.cut(l.end, err)
	}
	l.end += int64(len(frame))
	if sync {
		return l.awaitSync()
	}
	if l.cur == nil && l.next == nil {
		l.size = l.end
	}
	return nil
}

// awaitSync returns once an fsync that started after the caller's frame was
// written has finished, with its outcome. Caller holds mu, which is released
// around the fsync and the wait.
func (l *Log) awaitSync() error {
	g := l.next
	if g != nil {
		l.mu.Unlock()
		<-g.done
		l.mu.Lock()
		return g.err
	}
	g = &syncGroup{done: make(chan struct{})}
	l.next = g
	if prev := l.cur; prev != nil {
		l.mu.Unlock()
		<-prev.done
		l.mu.Lock()
		if l.next != g {
			// That fsync failed and took this group with it.
			return g.err
		}
	}
	l.cur, l.next = g, nil
	covered := l.end
	l.mu.Unlock()
	err := l.f.Sync()
	l.mu.Lock()
	l.cur = nil
	switch {
	case err == nil && l.next == nil:
		// Only frames appended without sync were written since.
		l.size = l.end
	case err == nil:
		l.size = covered
	default:
		// What the kernel did with the dirty pages is unknown, for the
		// frames written while the fsync ran as for those before it.
		err = l.cut(l.size, err)
		if late := l.next; late != nil {
			l.next = nil
			late.err = err
			close(late.done)
		}
	}
	g.err = err
	close(g.done)
	return err
}

// cut truncates the file to size after a failed write or fsync (cause) and
// returns the error to report; the log goes sticky-failed when the file
// cannot be cut. Caller holds mu.
func (l *Log) cut(size int64, cause error) error {
	err := fmt.Errorf("wal: append to %s: %w", l.path, cause)
	if terr := l.f.Truncate(size); terr != nil {
		l.err = fmt.Errorf("%w; log unusable, cannot cut the partial record: %v", err, terr)
		return l.err
	}
	l.end = size
	return err
}

// Rewrite atomically replaces the log's contents with one frame per payload
// and reopens it. An error before the rename leaves the old log in place and
// usable; after it the open file is unlinked, so the log goes sticky-failed
// rather than acknowledge appends into a file no restart will read.
func (l *Log) Rewrite(payloads [][]byte) error {
	l.lockIdle()
	defer l.unlockIdle()
	if l.err != nil {
		return l.err
	}
	size := 0
	for _, p := range payloads {
		size += HeaderSize + len(p)
	}
	data := make([]byte, 0, size)
	for _, p := range payloads {
		data = AppendFrame(data, p)
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
	l.size, l.end = int64(len(data)), int64(len(data))
	return nil
}

// Close releases the file, fsyncing first when sync is set — a caller that
// keeps the file flushes the appends it made without sync. Closing twice is
// harmless.
func (l *Log) Close(sync bool) error {
	l.lockIdle()
	defer l.unlockIdle()
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
