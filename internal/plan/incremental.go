package plan

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// ReplanCache makes consecutive plans incremental: it remembers, from the
// last successful Compute, each declaration's fingerprint and each instance's
// diff and planned value, keyed by (decl hash, prior-state record). On the
// next plan only the dirty subtree — declarations whose fingerprint moved,
// instances whose recorded state moved, and their transitive dependents —
// is re-evaluated; everything else replays its cached diff, producing a plan
// byte-identical to a full replan at a fraction of the evaluation cost.
//
// Invalidation is typed, and the layers compose:
//
//   - config: a decl-hash mismatch (edit, variable change, count change)
//     dirties that declaration and, via the graph closure, its dependents.
//   - state: each entry remembers the prior record it was planned against
//     and revalidates by identity, then by content. Records are immutable
//     and snapshots share them, so after a commit that touched three
//     addresses (apply, drift reconcile, rollback, concurrent writer) all
//     but three entries match on the pointer alone; a different pointer — a
//     cloud-refreshed prior, a reopened engine — is compared field by field,
//     and only a record whose content moved dirties its subtree.
//   - scope: an explicit -target scope intersects — a clean in-target
//     resource replays, a dirty out-of-target resource stays unplanned
//     exactly as it would in an uncached targeted plan.
//
// A ReplanCache is safe for concurrent use, but cached plans build on each
// other: use one cache per stack.
type ReplanCache struct {
	mu      sync.Mutex
	hashes  map[string]uint64 // resource addr -> decl hash
	entries map[string]*cacheEntry
	stats   CacheStats
}

// cacheEntry is one instance's memoized plan outcome. The change is the
// plan's own: a Change is not written after Plan.record, so cache and plans
// share it.
type cacheEntry struct {
	declHash uint64
	prior    *state.ResourceState // the record it was planned against (nil = absent)
	change   *Change
	value    eval.Value
	hasValue bool
}

// CacheStats describes the last cached Compute for observability and tests.
type CacheStats struct {
	// Invalidation is the dominant reason work was redone: "cold" (no prior
	// plan), "config" (decl edits), "state" (recorded state moved), or
	// "clean" (full replay).
	Invalidation string
	// DirtyConfig / DirtyState count seed resources per invalidation type.
	DirtyConfig, DirtyState int
	// Replayed / Evaluated count resource-level addresses served from cache
	// vs re-evaluated.
	Replayed, Evaluated int
}

// NewReplanCache returns an empty cache; the first Compute through it is a
// full plan that seeds it.
func NewReplanCache() *ReplanCache { return &ReplanCache{} }

// LastStats returns the stats of the most recent Compute that used the cache.
func (c *ReplanCache) LastStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// dirtySeeds compares the cache against the current expansion and (already
// refreshed) prior state, returning the seed set of resource-level addresses
// that must re-plan. cold reports that the cache has no usable prior plan.
// Drift surfaces here naturally: a refresh that changed recorded attributes
// yields a record that differs in content, dirtying exactly the drifted
// addresses.
func (c *ReplanCache) dirtySeeds(hashes map[string]uint64, ex *config.Expansion, prior *state.State) (seeds []string, cold bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hashes == nil {
		c.stats = CacheStats{Invalidation: "cold"}
		return nil, true
	}
	var cfgDirty, stateDirty int
	for _, g := range ex.Shape().Groups {
		r, insts := g.Addr, ex.Instances[g.Start:g.End]
		h := hashes[r]
		if oh, ok := c.hashes[r]; !ok || oh != h {
			seeds = append(seeds, r)
			cfgDirty++
			continue
		}
		for _, inst := range insts {
			if inst.Mode == config.DataMode {
				continue
			}
			e := c.entries[inst.Addr]
			if e == nil || e.declHash != h {
				seeds = append(seeds, r)
				cfgDirty++
				break
			}
			if cur := prior.Get(inst.Addr); cur != e.prior {
				if !sameRecord(cur, e.prior) {
					seeds = append(seeds, r)
					stateDirty++
					break
				}
				// Equal content under a new pointer: adopt it, so the next
				// plan over the same records matches on identity.
				e.prior = cur
			}
		}
	}
	sort.Strings(seeds)
	st := CacheStats{DirtyConfig: cfgDirty, DirtyState: stateDirty}
	switch {
	case cfgDirty == 0 && stateDirty == 0:
		st.Invalidation = "clean"
	case stateDirty > cfgDirty:
		st.Invalidation = "state"
	default:
		st.Invalidation = "config"
	}
	c.stats = st
	return seeds, false
}

// replay returns the cached entries for a clean resource's instances, or
// (nil, false) if any instance is missing — in which case the caller must
// evaluate the resource after all.
func (c *ReplanCache) replay(insts []*config.Instance) ([]*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cacheEntry, 0, len(insts))
	for _, inst := range insts {
		if inst.Mode == config.DataMode {
			out = append(out, nil)
			continue
		}
		e := c.entries[inst.Addr]
		if e == nil {
			return nil, false
		}
		out = append(out, e)
	}
	return out, true
}

// replanOutcome is what happened to one resource during a cached Compute.
type replanOutcome int

const (
	outcomeSkipped   replanOutcome = iota // out of target scope: nothing cached
	outcomeReplayed                       // served from cache, entries still valid
	outcomeEvaluated                      // evaluated fresh, cacheable
	outcomeFailed                         // evaluated with diagnostics: never cache
)

// commit records a finished Compute: fresh evaluations insert entries,
// replays are kept, and anything skipped or failed is dropped so the next
// plan re-derives it. hashes is the expansion's own map: it is copied before
// a dropped resource's hash is taken out.
func (c *ReplanCache) commit(hashes map[string]uint64, prior *state.State, ex *config.Expansion, outcomes map[string]replanOutcome, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[string]*cacheEntry{}
	}
	replayed, evaluated := 0, 0
	copied := false
	for _, g := range ex.Shape().Groups {
		r, insts := g.Addr, ex.Instances[g.Start:g.End]
		switch outcomes[r] {
		case outcomeReplayed:
			replayed++
			continue
		case outcomeSkipped, outcomeFailed:
			for _, inst := range insts {
				delete(c.entries, inst.Addr)
			}
			if !copied {
				hashes, copied = maps.Clone(hashes), true
			}
			delete(hashes, r)
			continue
		}
		evaluated++
		h := hashes[r]
		for _, inst := range insts {
			if inst.Mode == config.DataMode {
				continue
			}
			e := &cacheEntry{declHash: h, prior: prior.Get(inst.Addr), change: p.Changes[inst.Addr]}
			if v, ok := p.Values.Get(inst.Addr); ok {
				e.value, e.hasValue = v, true
			}
			c.entries[inst.Addr] = e
		}
	}
	// Entries of instances that left the configuration entirely.
	for addr := range c.entries {
		if _, ok := ex.ByAddr[addr]; !ok {
			delete(c.entries, addr)
		}
	}
	c.hashes = hashes
	c.stats.Replayed = replayed
	c.stats.Evaluated = evaluated
}

// sameRecord reports whether two prior records are the same input to a
// plan: identity, placement, the full attribute set and the dependencies
// (not the bookkeeping timestamps, which no diff reads). nil is "absent".
func sameRecord(a, b *state.ResourceState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Addr != b.Addr || a.Type != b.Type || a.ID != b.ID || a.Region != b.Region ||
		len(a.Attrs) != len(b.Attrs) || !slices.Equal(a.Dependencies, b.Dependencies) {
		return false
	}
	for name, v := range a.Attrs {
		if w, ok := b.Attrs[name]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}
