package statedb

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// Backend names accepted by NewEngine and the CLIs' -state-backend flag.
const (
	// BackendMemory is the default: version chains in memory, no commit log.
	BackendMemory = "memory"
	// BackendWAL adds the durable commit log in EngineOptions.Dir.
	BackendWAL = "wal"
	// backendMVCC is the retired name of the versioned in-memory engine,
	// still accepted so manifests and wire requests written by earlier
	// daemons open.
	backendMVCC = "mvcc"
)

// BaseUnchecked as a Batch.Base disables stale-base conflict detection.
const BaseUnchecked = -1

// Batch is one atomic commit against an Engine: the staged writes, deletes
// and (optionally) replaced root outputs of a transaction, plus the serial
// its reads were pinned at.
type Batch struct {
	// Base is the serial the writer's reads were pinned at. The engine
	// rejects the batch with *StaleBaseError when any touched address was
	// modified by a commit after Base. BaseUnchecked disables the check.
	Base int
	// Desc describes the commit (mirrors the transaction description).
	Desc string
	// Writes maps address to the new resource state.
	Writes map[string]*state.ResourceState
	// Deletes lists addresses to remove.
	Deletes map[string]bool
	// Outputs, when SetOutputs is true, replaces the root outputs.
	Outputs    map[string]eval.Value
	SetOutputs bool
}

// StaleBaseError reports an optimistic-concurrency conflict: a commit's base
// snapshot predates another commit that touched one of the same addresses.
// The writer must re-plan against the current serial and retry.
type StaleBaseError struct {
	// Addr is the conflicting address.
	Addr string
	// Base is the serial the rejected batch was pinned at.
	Base int
	// Committed is the serial of the later commit that modified Addr.
	Committed int
}

// Error implements error. A base below the retained window names no address:
// what was committed above it can no longer be told.
func (e *StaleBaseError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("statedb: stale base serial %d: history is retained from serial %d; re-plan and retry",
			e.Base, e.Committed)
	}
	return fmt.Sprintf("statedb: stale base serial %d: %q was modified at serial %d; re-plan and retry",
		e.Base, e.Addr, e.Committed)
}

// ErrNoSuchSerial is returned by Engine.Snapshot/Get for a serial outside
// the retained window: newer than the head, or older than the serial the
// engine was opened at or last trimmed to (see Engine.trim).
var ErrNoSuchSerial = errors.New("statedb: no version retained at the requested serial")

// EngineOptions configure NewEngine.
type EngineOptions struct {
	// Dir is the durable directory of the commit log (required for
	// BackendWAL, ignored otherwise).
	Dir string
}

// version is one committed version of one address. A nil resource marks a
// deletion tombstone.
type version struct {
	serial int
	rs     *state.ResourceState
}

// outputsVersion is one committed version of the root outputs.
type outputsVersion struct {
	serial  int
	outputs map[string]eval.Value
}

// CommitInfo describes one readable serial of the time machine.
type CommitInfo struct {
	Serial int `json:"serial"`
	// Desc is the commit's description; empty for the base of the window,
	// whose commit record is no longer kept.
	Desc string `json:"desc,omitempty"`
	// Resources counts the resources recorded at Serial.
	Resources int `json:"resources"`
}

// Engine is the golden-state store: resource states keyed by address,
// committed atomically at monotonically increasing serials. Every commit
// appends one copy-on-write version per touched address, so a reader pinned
// at serial N resolves each lookup to the newest version <= N and needs no
// coordination with commits landing after it; the time machine costs
// O(touched addresses) per commit, and reaches back at least compactEvery
// commits — older versions are trimmed, so memory is bounded by the window
// and not by the life of the process. With a commit log the batch is made
// durable before it becomes visible, and the log keeps the same window: a
// reopened engine reads exactly the serials the closed one did. Safe for
// concurrent use; locking and transaction bookkeeping live above the engine
// in DB/Txn.
type Engine struct {
	// wmu serializes commits and owns the log. mu is taken exclusively only
	// for the in-memory apply, so readers never wait on an fsync.
	wmu sync.Mutex
	log *commitLog // nil: no durability

	mu     sync.RWMutex
	serial int
	// oldest is the lower bound of the readable window: the serial of the
	// seed or of snapshot.json at open, then the floor of the last trim.
	oldest  int
	chains  map[string][]version
	outputs []outputsVersion
	// history holds one entry per readable serial, ascending from oldest.
	history []CommitInfo
}

// NewEngine builds the engine, seeded with the initial state. For a fresh
// store the seed serial is bumped by one, so the first committed snapshot
// has a serial of its own; a log directory that already holds durable data
// wins over the seed.
func NewEngine(backend string, initial *state.State, opts EngineOptions) (*Engine, error) {
	if initial == nil {
		initial = state.New()
	}
	// The caller keeps its InitialState and may edit it: the seed is the one
	// whole-state deep copy the engine makes.
	seed := initial.Clone()
	for addr, rs := range seed.Resources {
		seed.Resources[addr] = rs.Clone()
	}
	seed.Serial++
	switch backend {
	case "", BackendMemory, backendMVCC:
		return newEngine(seed), nil
	case BackendWAL:
		if opts.Dir == "" {
			return nil, fmt.Errorf("statedb: the %s backend requires EngineOptions.Dir", BackendWAL)
		}
		return openDurable(opts.Dir, seed)
	default:
		return nil, fmt.Errorf("statedb: unknown state backend %q (want %s or %s)",
			backend, BackendMemory, BackendWAL)
	}
}

// Backends lists the backend names.
func Backends() []string { return []string{BackendMemory, BackendWAL} }

// newEngine indexes a base state the caller hands over.
func newEngine(base *state.State) *Engine {
	e := &Engine{
		serial:  base.Serial,
		oldest:  base.Serial,
		chains:  make(map[string][]version, len(base.Resources)),
		outputs: []outputsVersion{{serial: base.Serial, outputs: base.Outputs}},
		history: []CommitInfo{{Serial: base.Serial, Resources: len(base.Resources)}},
	}
	for addr, rs := range base.Resources {
		e.chains[addr] = []version{{serial: base.Serial, rs: rs}}
	}
	return e
}

// Name returns the backend name: wal with a commit log, memory without.
func (e *Engine) Name() string {
	if e.log != nil {
		return BackendWAL
	}
	return BackendMemory
}

// Serial returns the newest committed serial.
func (e *Engine) Serial() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.serial
}

// resolveLocked checks a requested serial (0 = latest) against the readable
// window. Caller holds e.mu.
func (e *Engine) resolveLocked(serial int) (int, error) {
	if serial == 0 {
		return e.serial, nil
	}
	if serial > e.serial || serial < e.oldest {
		return 0, fmt.Errorf("statedb: read at serial %d (window [%d, %d]): %w",
			serial, e.oldest, e.serial, ErrNoSuchSerial)
	}
	return serial, nil
}

// versionAt resolves the newest version of a chain at or before serial.
// Chains ascend by serial, and reads at the head take the tail directly.
func versionAt(chain []version, serial int) *state.ResourceState {
	i := len(chain) - 1
	if i >= 0 && chain[i].serial > serial {
		i = sort.Search(len(chain), func(i int) bool { return chain[i].serial > serial }) - 1
	}
	if i < 0 {
		return nil
	}
	return chain[i].rs
}

// Get reads one resource at the given serial (0 = latest). The returned
// record is a private copy — Get is the read half of read-modify-write, so
// callers edit what it returns. A missing address yields (nil, nil); a
// serial outside the retained window yields ErrNoSuchSerial.
func (e *Engine) Get(addr string, serial int) (*state.ResourceState, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	at, err := e.resolveLocked(serial)
	if err != nil {
		return nil, err
	}
	if rs := versionAt(e.chains[addr], at); rs != nil {
		return rs.Clone(), nil
	}
	return nil, nil
}

// Snapshot materializes a consistent state at the given serial (0 = latest):
// a fresh address index and outputs map, which the caller owns (Set and
// Remove never reach the engine), over the engine's own retained records,
// which nobody writes (see state.ResourceState) — so the result is read
// without the lock, and costs the index, not a copy of the state.
func (e *Engine) Snapshot(serial int) (*state.State, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	at, err := e.resolveLocked(serial)
	if err != nil {
		return nil, err
	}
	s := &state.State{Serial: at, Resources: make(map[string]*state.ResourceState, len(e.chains))}
	for addr, chain := range e.chains {
		if rs := versionAt(chain, at); rs != nil {
			s.Resources[addr] = rs
		}
	}
	s.Outputs = maps.Clone(e.outputsAtLocked(at))
	if s.Outputs == nil {
		s.Outputs = map[string]eval.Value{}
	}
	return s, nil
}

// Outputs returns a copy of the root outputs at the head.
func (e *Engine) Outputs() map[string]eval.Value {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return maps.Clone(e.outputsAtLocked(e.serial))
}

// Len counts the resources recorded at the head.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.history[len(e.history)-1].Resources
}

// History lists every readable serial, oldest first: the base of the window,
// then one entry per commit since.
func (e *Engine) History() []CommitInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Clone(e.history)
}

// outputsAtLocked resolves the retained outputs version at or before
// serial. Caller holds e.mu and must not write the result.
func (e *Engine) outputsAtLocked(serial int) map[string]eval.Value {
	for i := len(e.outputs) - 1; i >= 0; i-- {
		if v := e.outputs[i]; v.serial <= serial {
			return v.outputs
		}
	}
	return nil
}

// Commit atomically applies a batch at the next serial and returns it. A
// batch with Base >= 0 fails with *StaleBaseError when any touched address
// was modified after Base. With a commit log the order is conflict check,
// durable append, in-memory apply: a rejected batch never reaches the log,
// and a crash after the append replays the record on reopen. Once the batch
// is durable the commit has landed, whatever log upkeep does afterwards.
func (e *Engine) Commit(b *Batch) (int, error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	// Only commits write the index and they all hold wmu, so the check
	// reads it without mu.
	if err := e.conflict(b); err != nil {
		return 0, err
	}
	serial := e.serial + 1
	writes := make(map[string]*state.ResourceState, len(b.Writes))
	for addr, rs := range b.Writes {
		cp := rs.Clone()
		cp.Addr = addr
		writes[addr] = cp
	}
	if e.log != nil {
		if err := e.log.append(serial, b, writes); err != nil {
			return 0, err
		}
	}
	e.apply(serial, b.Desc, writes, b.Deletes, maps.Clone(b.Outputs), b.SetOutputs)
	// One schedule for the window, in memory and on disk: every compactEvery
	// commits the chains are trimmed and the log's files follow them.
	due := serial%compactEvery == 0 && e.trim(serial-compactEvery)
	if e.log != nil && (due || e.log.compactErr != nil) {
		// The commit is already durable: a failed compaction is kept for
		// Close and retried by the next commit while the log keeps growing.
		e.log.compactErr = e.log.compact(e)
	}
	return serial, nil
}

// conflict rejects a batch whose base predates a commit to any address it
// touches, or the retained window: a trim may have dropped the chain of an
// address deleted since. Caller holds wmu.
func (e *Engine) conflict(b *Batch) error {
	if b.Base < 0 {
		return nil
	}
	if b.Base < e.oldest {
		return &StaleBaseError{Base: b.Base, Committed: e.oldest}
	}
	check := func(addr string) error {
		if chain := e.chains[addr]; len(chain) > 0 {
			if last := chain[len(chain)-1].serial; last > b.Base {
				return &StaleBaseError{Addr: addr, Base: b.Base, Committed: last}
			}
		}
		return nil
	}
	for addr := range b.Writes {
		if err := check(addr); err != nil {
			return err
		}
	}
	for addr := range b.Deletes {
		if err := check(addr); err != nil {
			return err
		}
	}
	return nil
}

// apply appends one version per touched address at the given serial, one of
// the outputs when setOutputs, and the commit's history entry. The engine
// takes ownership of writes and outputs. Caller holds wmu (or is the only
// user, during replay).
func (e *Engine) apply(serial int, desc string, writes map[string]*state.ResourceState, deletes map[string]bool, outputs map[string]eval.Value, setOutputs bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.history[len(e.history)-1].Resources
	put := func(addr string, rs *state.ResourceState) {
		chain := e.chains[addr]
		was := len(chain) > 0 && chain[len(chain)-1].rs != nil
		switch {
		case rs != nil && !was:
			n++
		case rs == nil && was:
			n--
		}
		e.chains[addr] = append(chain, version{serial: serial, rs: rs})
	}
	for addr, rs := range writes {
		put(addr, rs)
	}
	for addr := range deletes {
		put(addr, nil)
	}
	if setOutputs {
		e.outputs = append(e.outputs, outputsVersion{serial: serial, outputs: outputs})
	}
	e.history = append(e.history, CommitInfo{Serial: serial, Desc: desc, Resources: n})
	e.serial = serial
}

// trim bounds the time machine: it drops what no read at or above floor can
// reach — per address, every version older than the newest one at or below
// floor, and that one too when it is a deletion (an address with no version
// yet reads the same); likewise the outputs and the history, whose entry at
// floor loses its description as the new base — and moves the window's lower
// bound up to floor. It reports whether the window moved. Caller holds wmu.
func (e *Engine) trim(floor int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if floor <= e.oldest {
		return false
	}
	for addr, chain := range e.chains {
		keep := sort.Search(len(chain), func(i int) bool { return chain[i].serial > floor }) - 1
		if keep < 0 {
			continue
		}
		if chain[keep].rs == nil {
			keep++
		}
		switch {
		case keep == len(chain):
			delete(e.chains, addr)
		case keep > 0:
			// A copy, so the dropped versions leave the backing array too.
			e.chains[addr] = slices.Clone(chain[keep:])
		}
	}
	if keep := sort.Search(len(e.outputs), func(i int) bool { return e.outputs[i].serial > floor }) - 1; keep > 0 {
		e.outputs = slices.Clone(e.outputs[keep:])
	}
	keep := sort.Search(len(e.history), func(i int) bool { return e.history[i].Serial > floor }) - 1
	e.history = slices.Clone(e.history[keep:])
	e.history[0].Serial, e.history[0].Desc = floor, ""
	e.oldest = floor
	return true
}

// Close flushes and releases the commit log; reads keep working. It reports
// a log compaction that failed and has not succeeded since.
func (e *Engine) Close() error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.log == nil {
		return nil
	}
	return errors.Join(e.log.Close(true), e.log.compactErr)
}
