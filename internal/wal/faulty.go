package wal

import (
	"errors"
	"sync"
)

// ErrInjected is the error every fault a Faulty file injects returns.
var ErrInjected = errors.New("wal: injected I/O error")

// Faults selects which calls of a Faulty file fail.
type Faults struct {
	// FailWrite fails a write before any byte lands; ShortWrite leaves half
	// the frame in the file first, as a disk filling up mid-write does.
	FailWrite, ShortWrite bool
	FailSync              bool
	FailTruncate          bool
}

// Faulty is the test double for a log's file: it fails, stalls, counts and
// reports calls on demand, for every package whose tests drive a Log through
// I/O errors. WrapFaulty installs one. Safe for concurrent use.
type Faulty struct {
	File
	// Trace, when set, is told of each "write" once the whole frame (p) is
	// in the file, of each "sync" before it reaches the file and again,
	// "synced", once it returned without error, and of each "close" before
	// it. It runs on the calling goroutine, so a log with concurrent
	// appenders calls it concurrently. Set it before the log is used again.
	Trace func(op string, p []byte)

	mu     sync.Mutex
	faults Faults
	syncs  int
	// entered and release, when set, stall the next Sync: it closes entered,
	// then waits for release to be closed.
	entered, release chan struct{}
}

// WrapFaulty puts a Faulty file between l and its file.
func WrapFaulty(l *Log) *Faulty {
	ff := &Faulty{}
	l.Wrap(func(f File) File { ff.File = f; return ff })
	return ff
}

// Set replaces the faults in force; the zero Faults heals the file.
func (f *Faulty) Set(faults Faults) {
	f.mu.Lock()
	f.faults = faults
	f.mu.Unlock()
}

// Syncs returns how many times Sync was called.
func (f *Faulty) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// BlockSync makes the next Sync stall before it reaches the file: entered is
// closed when it arrives, and it proceeds once release is called.
func (f *Faulty) BlockSync() (entered <-chan struct{}, release func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entered, f.release = make(chan struct{}), make(chan struct{})
	gate := f.release
	return f.entered, func() { close(gate) }
}

func (f *Faulty) trace(op string, p []byte) {
	if f.Trace != nil {
		f.Trace(op, p)
	}
}

func (f *Faulty) inForce() Faults {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

func (f *Faulty) Write(p []byte) (int, error) {
	switch faults := f.inForce(); {
	case faults.FailWrite:
		return 0, ErrInjected
	case faults.ShortWrite:
		n, _ := f.File.Write(p[:len(p)/2])
		return n, ErrInjected
	}
	n, err := f.File.Write(p)
	if err == nil {
		f.trace("write", p)
	}
	return n, err
}

func (f *Faulty) Sync() error {
	f.trace("sync", nil)
	f.mu.Lock()
	f.syncs++
	entered, release := f.entered, f.release
	f.entered, f.release = nil, nil
	f.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	if f.inForce().FailSync {
		return ErrInjected
	}
	err := f.File.Sync()
	if err == nil {
		f.trace("synced", nil)
	}
	return err
}

func (f *Faulty) Truncate(size int64) error {
	if f.inForce().FailTruncate {
		return ErrInjected
	}
	return f.File.Truncate(size)
}

func (f *Faulty) Close() error {
	f.trace("close", nil)
	return f.File.Close()
}
