package state

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudless/internal/eval"
)

// Snapshot is one committed version in the time machine: a state together
// with the fingerprint of the configuration that produced it, so rollback
// plans can recover the exact config↔state pairing (§3.4).
type Snapshot struct {
	Serial      int
	Time        time.Time
	Description string
	// ConfigFingerprint identifies the configuration snapshot that was
	// applied to reach this state.
	ConfigFingerprint string
	State             *State
}

// History is the CLI's on-disk "time machine": the container `cloudlessctl
// -history <dir>` loads its snapshot files into for listing and rollback
// plans. A running stack's time machine is the statedb engine's version
// chains. It is safe for concurrent use.
type History struct {
	mu        sync.RWMutex
	snapshots []*Snapshot
	limit     int
}

// NewHistory creates a history retaining up to limit snapshots (0 means
// unlimited).
func NewHistory(limit int) *History {
	return &History{limit: limit}
}

// Commit stores a Clone of the state — its own index over the same
// immutable records — as a new version and returns its serial number. When
// the state carries a serial greater than the last snapshot's, that serial
// is kept, so a state store's serial numbers and its history line up;
// otherwise the next sequential serial is assigned.
func (h *History) Commit(s *State, description, configFingerprint string) int {
	cp := s.Clone()
	h.mu.Lock()
	defer h.mu.Unlock()
	last := 0
	if n := len(h.snapshots); n > 0 {
		last = h.snapshots[n-1].Serial
	}
	serial := cp.Serial
	if serial <= last {
		serial = last + 1
	}
	cp.Serial = serial
	h.snapshots = append(h.snapshots, &Snapshot{
		Serial:            serial,
		Time:              time.Now(),
		Description:       description,
		ConfigFingerprint: configFingerprint,
		State:             cp,
	})
	if h.limit > 0 && len(h.snapshots) > h.limit {
		h.snapshots = h.snapshots[len(h.snapshots)-h.limit:]
	}
	return serial
}

// Latest returns the newest snapshot, or nil when empty.
func (h *History) Latest() *Snapshot {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.snapshots) == 0 {
		return nil
	}
	return h.snapshots[len(h.snapshots)-1]
}

// At returns the snapshot with the given serial.
func (h *History) At(serial int) (*Snapshot, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	i := sort.Search(len(h.snapshots), func(i int) bool {
		return h.snapshots[i].Serial >= serial
	})
	if i >= len(h.snapshots) || h.snapshots[i].Serial != serial {
		return nil, fmt.Errorf("state history: no snapshot with serial %d", serial)
	}
	return h.snapshots[i], nil
}

// Len returns the number of retained snapshots.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.snapshots)
}

// Serials lists retained serial numbers in ascending order.
func (h *History) Serials() []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]int, len(h.snapshots))
	for i, s := range h.snapshots {
		out[i] = s.Serial
	}
	return out
}

// FindByConfig returns the newest snapshot produced by the given
// configuration fingerprint, enabling "roll back to the state that config X
// produced".
func (h *History) FindByConfig(configFingerprint string) *Snapshot {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i := len(h.snapshots) - 1; i >= 0; i-- {
		if h.snapshots[i].ConfigFingerprint == configFingerprint {
			return h.snapshots[i]
		}
	}
	return nil
}

// DiffAddrs compares two snapshots and reports which addresses were added,
// removed, or changed going from a to b.
func DiffAddrs(a, b *State) (added, removed, changed []string) {
	for addr, rb := range b.Resources {
		ra, ok := a.Resources[addr]
		switch {
		case !ok:
			added = append(added, addr)
		case !attrsEqual(ra.Attrs, rb.Attrs) || ra.ID != rb.ID:
			changed = append(changed, addr)
		}
	}
	for addr := range a.Resources {
		if _, ok := b.Resources[addr]; !ok {
			removed = append(removed, addr)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	sort.Strings(changed)
	return
}

func attrsEqual(a, b map[string]eval.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || !va.Equal(vb) {
			return false
		}
	}
	return true
}
