package provider

import (
	"strings"
	"sync"
	"time"
)

// Cache keys: Gets are keyed by (type, id), Lists by (type, region). A write
// to any resource of a type invalidates all of the type's list entries —
// every region variant, including the all-regions ("") one, and every page.
func getKey(typ, id string) string      { return "get/" + typ + "/" + id }
func healthKey(typ, id string) string   { return "health/" + typ + "/" + id }
func listKey(typ, region string) string { return listPrefix + typ + "/" + region }

const listPrefix = "list/"

// listType returns the resource type of a list key (or of a page key below
// it), and whether key is one.
func listType(key string) (string, bool) {
	rest, ok := strings.CutPrefix(key, listPrefix)
	if !ok {
		return "", false
	}
	typ, _, _ := strings.Cut(rest, "/")
	return typ, true
}

// cacheMaxEntries bounds the cache; on overflow the sweep drops expired
// entries first and then arbitrary ones (map order) until under the cap.
// The cache is a TTL cache, not an LRU: precision of eviction matters far
// less than never exceeding the bound.
const cacheMaxEntries = 8192

type cacheEntry struct {
	val     any
	expires time.Time
}

// ttlCache is the runtime's read-through cache. A nil-TTL (disabled) cache
// still accepts calls and just never stores anything.
type ttlCache struct {
	mu       sync.Mutex
	ttl      time.Duration
	disabled bool
	// m holds every entry but the lists, which sit in one bucket per
	// resource type so that a write drops its type's bucket without a scan
	// of the cache. size counts both.
	m     map[string]cacheEntry
	lists map[string]map[string]cacheEntry
	size  int
}

func newTTLCache(ttl time.Duration) *ttlCache {
	return &ttlCache{ttl: ttl, disabled: ttl < 0,
		m: map[string]cacheEntry{}, lists: map[string]map[string]cacheEntry{}}
}

// bucketLocked returns the map key lives in: m, or its type's list bucket
// (nil when the type has none yet; create makes it).
func (c *ttlCache) bucketLocked(key string, create bool) map[string]cacheEntry {
	typ, ok := listType(key)
	if !ok {
		return c.m
	}
	b := c.lists[typ]
	if b == nil && create {
		b = map[string]cacheEntry{}
		c.lists[typ] = b
	}
	return b
}

func (c *ttlCache) get(key string, now time.Time) (any, bool) {
	if c.disabled {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucketLocked(key, false)
	e, ok := b[key]
	if !ok {
		return nil, false
	}
	if now.After(e.expires) {
		delete(b, key)
		c.size--
		return nil, false
	}
	return e.val, true
}

func (c *ttlCache) put(key string, val any, now time.Time) {
	if c.disabled {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.size >= cacheMaxEntries {
		c.sweepLocked(now)
	}
	b := c.bucketLocked(key, true)
	if _, ok := b[key]; !ok {
		c.size++
	}
	b[key] = cacheEntry{val: val, expires: now.Add(c.ttl)}
}

func (c *ttlCache) invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucketLocked(key, false)
	if _, ok := b[key]; ok {
		delete(b, key)
		c.size--
	}
}

// invalidateLists drops every list entry of one resource type.
func (c *ttlCache) invalidateLists(typ string) {
	c.mu.Lock()
	c.size -= len(c.lists[typ])
	delete(c.lists, typ)
	c.mu.Unlock()
}

// sweepLocked evicts expired entries, then arbitrary ones until the cache
// is at most half full — amortizing the sweep across many puts.
func (c *ttlCache) sweepLocked(now time.Time) {
	buckets := []map[string]cacheEntry{c.m}
	for _, b := range c.lists {
		buckets = append(buckets, b)
	}
	for _, b := range buckets {
		for k, e := range b {
			if now.After(e.expires) {
				delete(b, k)
				c.size--
			}
		}
	}
	for _, b := range buckets {
		for k := range b {
			if c.size <= cacheMaxEntries/2 {
				return
			}
			delete(b, k)
			c.size--
		}
	}
}
