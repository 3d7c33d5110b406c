// Package state models the recorded state of a deployed infrastructure: the
// mapping from configuration addresses to real cloud resources. It provides
// JSON serialization, cloning over shared immutable records and
// fingerprinting. The §3.4 "time machine" over these states is the statedb
// engine's.
package state

import (
	"encoding/json"
	"maps"
	"sort"
	"strconv"
	"time"

	"cloudless/internal/eval"
	"cloudless/internal/wal"
)

// ResourceState records one deployed resource instance. A record is
// immutable once published — Set into a State, staged in a transaction,
// attached to a plan.Change: snapshots, clones, plans and the engine's
// version chains all share the same pointer. To change one, Clone it, edit
// the copy and Set that.
type ResourceState struct {
	// Addr is the instance address, e.g. "aws_subnet.s[0]".
	Addr string
	// Type is the resource type.
	Type string
	// ID is the cloud-assigned identifier.
	ID string
	// Region the resource lives in.
	Region string
	// Attrs is the full attribute set as last read from the cloud.
	Attrs map[string]eval.Value
	// Generation is the cloud's Generation of the response Attrs (and
	// Region) were copied from, so a refresh can ask for the resource only
	// if it changed since. Zero means unknown: the next refresh reads in
	// full. Code that sets Attrs from anything but that same cloud response
	// (a journal record, a drift report, a Clone edited by hand) must set
	// Generation to zero.
	Generation int
	// Dependencies are resource-level addresses this instance depended on
	// at creation; destroy ordering reverses them.
	Dependencies []string
	// CreatedAt/UpdatedAt are bookkeeping timestamps.
	CreatedAt time.Time
	UpdatedAt time.Time
}

// Clone returns a private, editable copy of the record (its Attrs map and
// Dependencies slice included; the eval.Values are immutable).
func (rs *ResourceState) Clone() *ResourceState {
	cp := *rs
	cp.Attrs = make(map[string]eval.Value, len(rs.Attrs))
	for k, v := range rs.Attrs {
		cp.Attrs[k] = v
	}
	cp.Dependencies = append([]string(nil), rs.Dependencies...)
	return &cp
}

// Attr returns an attribute value or eval.Null.
func (rs *ResourceState) Attr(name string) eval.Value {
	if v, ok := rs.Attrs[name]; ok {
		return v
	}
	return eval.Null
}

// State is the complete recorded infrastructure state.
type State struct {
	// Serial increments on every commit.
	Serial int
	// Resources maps instance address to recorded state.
	Resources map[string]*ResourceState
	// Outputs are the root module outputs as of the last apply.
	Outputs map[string]eval.Value
}

// New creates an empty state.
func New() *State {
	return &State{Resources: map[string]*ResourceState{}, Outputs: map[string]eval.Value{}}
}

// Clone copies the address index and the outputs map, not the records: the
// clone shares every *ResourceState with s, which is safe because records
// are immutable (see ResourceState). Set and Remove on either side never
// reach the other.
func (s *State) Clone() *State {
	c := &State{Serial: s.Serial, Resources: maps.Clone(s.Resources), Outputs: maps.Clone(s.Outputs)}
	if c.Resources == nil {
		c.Resources = map[string]*ResourceState{}
	}
	if c.Outputs == nil {
		c.Outputs = map[string]eval.Value{}
	}
	return c
}

// Get returns the resource at an address, or nil.
func (s *State) Get(addr string) *ResourceState {
	return s.Resources[addr]
}

// Set inserts or replaces a resource record.
func (s *State) Set(rs *ResourceState) {
	s.Resources[rs.Addr] = rs
}

// Remove deletes a resource record.
func (s *State) Remove(addr string) {
	delete(s.Resources, addr)
}

// Addrs returns all instance addresses, sorted.
func (s *State) Addrs() []string {
	out := make([]string, 0, len(s.Resources))
	for a := range s.Resources {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of recorded resources.
func (s *State) Len() int { return len(s.Resources) }

// ByID finds the resource record holding a given cloud ID, or nil.
func (s *State) ByID(id string) *ResourceState {
	for _, rs := range s.Resources {
		if rs.ID == id {
			return rs
		}
	}
	return nil
}

// Fingerprint returns a stable hash of the entire state, used to detect
// divergence between two state snapshots cheaply.
func (s *State) Fingerprint() string {
	h := uint64(14695981039346656037)
	mix := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= 1099511628211
		}
	}
	for _, addr := range s.Addrs() {
		rs := s.Resources[addr]
		mix(addr)
		mix(rs.ID)
		mix(strconv.FormatUint(eval.Object(rs.Attrs).Hash(), 16))
	}
	return strconv.FormatUint(h, 16)
}

// --- Serialization --------------------------------------------------------

type stateJSON struct {
	Version   int                     `json:"version"`
	Serial    int                     `json:"serial"`
	Resources map[string]resourceJSON `json:"resources"`
	Outputs   map[string]any          `json:"outputs,omitempty"`
}

type resourceJSON struct {
	Type         string         `json:"type"`
	ID           string         `json:"id"`
	Region       string         `json:"region"`
	Attrs        map[string]any `json:"attrs"`
	Generation   int            `json:"generation,omitempty"`
	Dependencies []string       `json:"dependencies,omitempty"`
	CreatedAt    time.Time      `json:"created_at"`
	UpdatedAt    time.Time      `json:"updated_at"`
}

// Encode serializes the state as JSON.
func (s *State) Encode() ([]byte, error) {
	return json.MarshalIndent(s.encodable(), "", "  ")
}

// EncodeCompact is Encode without the indentation: the bytes json.Compact
// makes of Encode's, in one pass.
func (s *State) EncodeCompact() ([]byte, error) {
	return json.Marshal(s.encodable())
}

func (s *State) encodable() stateJSON {
	out := stateJSON{
		Version:   1,
		Serial:    s.Serial,
		Resources: make(map[string]resourceJSON, len(s.Resources)),
		Outputs:   make(map[string]any, len(s.Outputs)),
	}
	for addr, rs := range s.Resources {
		attrs := make(map[string]any, len(rs.Attrs))
		for k, v := range rs.Attrs {
			attrs[k] = eval.ToGo(v)
		}
		out.Resources[addr] = resourceJSON{
			Type: rs.Type, ID: rs.ID, Region: rs.Region, Attrs: attrs, Generation: rs.Generation,
			Dependencies: rs.Dependencies, CreatedAt: encodableTime(rs.CreatedAt), UpdatedAt: encodableTime(rs.UpdatedAt),
		}
	}
	for k, v := range s.Outputs {
		out.Outputs[k] = eval.ToGo(v)
	}
	return out
}

// encodableTime returns t, or the same instant in UTC when t's zone offset
// is 24 hours or more: RFC 3339, and so time.Time.MarshalJSON, cannot write
// such an offset, though UnmarshalJSON reads one.
func encodableTime(t time.Time) time.Time {
	if _, off := t.Zone(); off <= -24*60*60 || off >= 24*60*60 {
		return t.UTC()
	}
	return t
}

// SaveFile writes the state to a file atomically and durably: the commit
// log relies on that before it discards the records a snapshot covers.
func (s *State) SaveFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, data, 0o644)
}
