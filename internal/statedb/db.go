package statedb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// DB is the golden-state database: the authoritative, transactional record
// of the infrastructure. Updates are scheduled against the logical state and
// locks here, and only then applied to the physical cloud — the ordering the
// paper prescribes in §3.4. Storage and the time machine are the Engine's
// (version chains, optionally over a durable commit log); DB layers the lock
// manager and transactions on top.
type DB struct {
	engine  *Engine
	locks   *LockManager
	nextTxn atomic.Int64

	commits atomic.Int64
	aborts  atomic.Int64
}

// Open creates a database seeded with an initial state, with no commit log.
func Open(initial *state.State, mode LockMode) *DB {
	eng, err := NewEngine(BackendMemory, initial, EngineOptions{})
	if err != nil {
		// Without a log there is nothing to fail.
		panic(err)
	}
	return OpenEngine(eng, mode)
}

// OpenEngine creates a database over an already-constructed storage engine.
func OpenEngine(eng *Engine, mode LockMode) *DB {
	return &DB{engine: eng, locks: NewLockManager(mode)}
}

// Backend names the storage backend in use.
func (db *DB) Backend() string { return db.engine.Name() }

// Close releases the storage engine's resources (the commit log's file).
func (db *DB) Close() error { return db.engine.Close() }

// Locks exposes the lock manager (for stats and for the applier, which
// holds locks across the physical apply).
func (db *DB) Locks() *LockManager { return db.locks }

// Snapshot returns the current golden state: an address index and outputs
// map the caller owns (Set/Remove stay private) over records shared with the
// engine and every other snapshot. Records are immutable — edit a Clone and
// Set it. For one field of the head use Serial, Len or Outputs.
func (db *DB) Snapshot() *state.State {
	s, err := db.engine.Snapshot(0)
	if err != nil {
		// The latest serial is always inside the retained window.
		panic(fmt.Sprintf("statedb: snapshot: %v", err))
	}
	return s
}

// SnapshotAt returns the state as of a past serial — the time machine —
// under Snapshot's sharing contract. Serials below the engine's retained
// window (see History) or newer than the head return ErrNoSuchSerial — as
// does 0, which no commit carries (the engine reads it as "latest"; that is
// Snapshot).
func (db *DB) SnapshotAt(serial int) (*state.State, error) {
	if serial == 0 {
		return nil, fmt.Errorf("statedb: snapshot at serial 0: %w", ErrNoSuchSerial)
	}
	return db.engine.Snapshot(serial)
}

// History lists the serials SnapshotAt can read, oldest first, each with its
// commit description and resource count. The window is the engine's: the
// last 64–127 commits, the same after a reopen of a durable directory.
func (db *DB) History() []CommitInfo { return db.engine.History() }

// Serial returns the current state serial.
func (db *DB) Serial() int { return db.engine.Serial() }

// Len returns the number of resources in the current golden state.
func (db *DB) Len() int { return db.engine.Len() }

// Outputs returns a copy of the current root outputs.
func (db *DB) Outputs() map[string]eval.Value { return db.engine.Outputs() }

// CommitCount and AbortCount expose transaction outcome counters.
func (db *DB) CommitCount() int64 { return db.commits.Load() }

// AbortCount returns the number of aborted transactions.
func (db *DB) AbortCount() int64 { return db.aborts.Load() }

// txnState is the Txn lifecycle: pending until exactly one of Commit or
// Abort wins; both are idempotent afterwards.
type txnState int

const (
	txnPending txnState = iota
	txnCommitted
	txnAborted
)

// Txn is an in-flight transaction: a private read/write view over the
// golden state plus the set of locks it holds. A transaction only sees its
// own writes until commit; commit publishes them atomically. Commit and
// Abort are idempotent: finishing an already-finished transaction is a
// no-op (a repeated Commit returns the original serial), never a panic or
// a double lock release.
type Txn struct {
	id int64
	db *DB

	mu      sync.Mutex
	state   txnState
	serial  int // committed serial, once state == txnCommitted
	base    int // read-snapshot serial for conflict detection
	locked  map[string]bool
	writes  map[string]*state.ResourceState
	deletes map[string]bool
	outputs map[string]eval.Value
	desc    string
}

// Begin starts a transaction with conflict detection disabled.
func (db *DB) Begin(description string) *Txn {
	return db.BeginAt(description, BaseUnchecked)
}

// BeginAt starts a transaction whose reads are pinned at the given base
// serial: Commit fails with *StaleBaseError if any address it touches was
// modified by a commit after base. Pass BaseUnchecked to disable.
func (db *DB) BeginAt(description string, base int) *Txn {
	return &Txn{
		id:      db.nextTxn.Add(1),
		db:      db,
		base:    base,
		locked:  map[string]bool{},
		writes:  map[string]*state.ResourceState{},
		deletes: map[string]bool{},
		desc:    description,
	}
}

// ID returns the transaction's identifier.
func (t *Txn) ID() int64 { return t.id }

// Base returns the serial the transaction's reads are pinned at
// (BaseUnchecked when conflict detection is off).
func (t *Txn) Base() int { return t.base }

// SetBase pins (or re-pins) the transaction's base serial.
func (t *Txn) SetBase(serial int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = serial
}

// Lock acquires locks on the given resource addresses (all-or-nothing,
// blocking). Addresses already locked by this transaction are skipped.
func (t *Txn) Lock(ctx context.Context, addrs ...string) error {
	t.mu.Lock()
	if t.state != txnPending {
		t.mu.Unlock()
		return fmt.Errorf("statedb: transaction %d is finished", t.id)
	}
	var need []string
	for _, a := range addrs {
		if !t.locked[a] {
			need = append(need, a)
		}
	}
	t.mu.Unlock()
	if len(need) == 0 {
		return nil
	}
	// Block on the lock manager without holding t.mu.
	if err := t.db.locks.Acquire(ctx, t.id, need); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != txnPending {
		// Finished while we were blocking: release what we just took.
		t.db.locks.Release(t.id, need)
		return fmt.Errorf("statedb: transaction %d is finished", t.id)
	}
	for _, a := range need {
		t.locked[a] = true
	}
	return nil
}

// TryLock attempts non-blocking acquisition of all addresses.
func (t *Txn) TryLock(addrs ...string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != txnPending {
		return false
	}
	var need []string
	for _, a := range addrs {
		if !t.locked[a] {
			need = append(need, a)
		}
	}
	if len(need) == 0 {
		return true
	}
	if !t.db.locks.TryAcquire(t.id, need) {
		return false
	}
	for _, a := range need {
		t.locked[a] = true
	}
	return true
}

// requireLockLocked guards reads/writes: accessing an address without its
// lock is a programming error that would break isolation. Caller holds t.mu.
func (t *Txn) requireLockLocked(addr string) error {
	if t.state != txnPending {
		return fmt.Errorf("statedb: transaction %d is finished", t.id)
	}
	if t.db.locks.Mode() == GlobalLock {
		if len(t.locked) == 0 {
			return fmt.Errorf("statedb: txn %d accessed %q without holding the global lock", t.id, addr)
		}
		return nil
	}
	if !t.locked[addr] {
		return fmt.Errorf("statedb: txn %d accessed %q without holding its lock", t.id, addr)
	}
	return nil
}

// Get reads a resource through the transaction's view.
func (t *Txn) Get(addr string) (*state.ResourceState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireLockLocked(addr); err != nil {
		return nil, err
	}
	if t.deletes[addr] {
		return nil, nil
	}
	if rs, ok := t.writes[addr]; ok {
		return rs.Clone(), nil
	}
	return t.db.engine.Get(addr, 0)
}

// Put stages a write.
func (t *Txn) Put(rs *state.ResourceState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireLockLocked(rs.Addr); err != nil {
		return err
	}
	delete(t.deletes, rs.Addr)
	t.writes[rs.Addr] = rs.Clone()
	return nil
}

// SetOutputs stages replacement of the recorded root outputs.
func (t *Txn) SetOutputs(outputs map[string]eval.Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outputs = make(map[string]eval.Value, len(outputs))
	for k, v := range outputs {
		t.outputs[k] = v
	}
}

// Delete stages a removal.
func (t *Txn) Delete(addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireLockLocked(addr); err != nil {
		return err
	}
	delete(t.writes, addr)
	t.deletes[addr] = true
	return nil
}

// Commit atomically publishes the transaction's writes through the storage
// engine and releases all locks. Committing an already-committed transaction
// is a no-op returning the original serial; committing an aborted
// transaction is an error. When the transaction was pinned with
// BeginAt/SetBase, a conflicting concurrent commit surfaces as
// *StaleBaseError and the transaction stays open (abort it and re-plan).
func (t *Txn) Commit() (serial int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case txnCommitted:
		return t.serial, nil
	case txnAborted:
		return 0, fmt.Errorf("statedb: transaction %d already aborted", t.id)
	}
	b := &Batch{
		Base:    t.base,
		Desc:    t.desc,
		Writes:  t.writes,
		Deletes: t.deletes,
	}
	if t.outputs != nil {
		b.Outputs = t.outputs
		b.SetOutputs = true
	}
	serial, err = t.db.engine.Commit(b)
	if err != nil {
		return 0, err
	}
	t.serial = serial
	t.finishLocked(txnCommitted)
	t.db.commits.Add(1)
	return serial, nil
}

// Abort discards the transaction and releases its locks. Aborting a
// finished transaction is a no-op.
func (t *Txn) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != txnPending {
		return
	}
	t.finishLocked(txnAborted)
	t.db.aborts.Add(1)
}

// finishLocked releases locks exactly once and seals the transaction.
// Caller holds t.mu with state still txnPending.
func (t *Txn) finishLocked(final txnState) {
	addrs := make([]string, 0, len(t.locked))
	for a := range t.locked {
		addrs = append(addrs, a)
	}
	t.db.locks.Release(t.id, addrs)
	t.state = final
	t.writes = nil
	t.deletes = nil
	t.locked = map[string]bool{}
}
