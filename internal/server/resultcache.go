package server

// Result cache: graph analytics answers are immutable for a given
// (dataset generation, algorithm, arguments) triple — the graph is a
// read-only structure and every registry algorithm is deterministic in
// the engine's fixed seed — so the service can answer repeats without
// re-running. Keys embed the dataset's open generation, so an evicted
// and reopened (possibly rewritten) file never serves stale answers, and
// arguments are canonicalized first (sage.CanonicalArgs), so {"eps":0}
// and {} hit the same entry.
//
// The cache is an LRU, the one response LRU of the serving tier: the
// cluster router's proxied-response cache is the same type over its own
// value.
//
// Capacity is bounded twice: by entry count and by total response bytes
// — cached values retain full Θ(n)/Θ(m) result arrays, so an entry cap
// alone would let a few hundred big-graph answers pin gigabytes of heap
// and dwarf the DRAM budget the admission controller enforces. A single
// response larger than a quarter of the byte budget is not cached at
// all: one giant answer must not wipe the whole cache.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is a goroutine-safe least-recently-used map from string keys to V,
// bounded by entry count and by the summed sizes its callers declare. A
// nil *LRU is valid: it never holds anything and always misses.
type LRU[V any] struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recent
	byKey    map[string]*list.Element
	hits     atomic.Int64
	misses   atomic.Int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

// cachedResult retains only pre-marshaled bytes — the full response and
// the value-less rendering served for ?value=false — so the byte budget
// covers everything the entry pins: no unserialized Θ(n)/Θ(m) result
// arrays ride along uncounted.
type cachedResult struct {
	body []byte // full response
	slim []byte // value omitted
}

// defaultLRUBytes bounds a cache whose configured byte budget is zero.
const defaultLRUBytes = 64 << 20

// NewLRU returns a cache of up to max entries and maxBytes summed entry
// sizes (64 MB when maxBytes <= 0), or nil — caching disabled — when
// max <= 0.
func NewLRU[V any](max int, maxBytes int64) *LRU[V] {
	if max <= 0 {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = defaultLRUBytes
	}
	return &LRU[V]{max: max, maxBytes: maxBytes, ll: list.New(), byKey: map[string]*list.Element{}}
}

// Get returns the value cached under key and marks it most recent. What
// it returns is shared with later hits and must be treated as read-only.
func (c *LRU[V]) Get(key string) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if !found {
		c.misses.Add(1)
		return v, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores v under key as size bytes, replacing any previous value and
// evicting least-recent entries beyond either bound. A value larger than
// a quarter of the byte budget is not stored.
func (c *LRU[V]) Put(key string, v V, size int64) {
	if c == nil || size > c.maxBytes/4 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key)
	c.byKey[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v, size: size})
	c.bytes += size
	for c.ll.Len() > c.max || c.bytes > c.maxBytes {
		c.removeLocked(c.ll.Back().Value.(*lruEntry[V]).key)
	}
}

// Remove drops key's entry, if any.
func (c *LRU[V]) Remove(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key)
}

func (c *LRU[V]) removeLocked(key string) {
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	c.ll.Remove(el)
	delete(c.byKey, key)
	c.bytes -= el.Value.(*lruEntry[V]).size
}

// LRUStats is the /metrics view of a cache.
type LRUStats struct {
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
	Bytes      int64 `json:"bytes"`
	BytesLimit int64 `json:"bytes_limit"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
}

// Stats snapshots the cache's occupancy and counters (zero when nil).
func (c *LRU[V]) Stats() LRUStats {
	if c == nil {
		return LRUStats{}
	}
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return LRUStats{
		Entries:    entries,
		Capacity:   c.max,
		Bytes:      bytes,
		BytesLimit: c.maxBytes,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
	}
}
