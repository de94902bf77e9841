package server

// Result cache: graph analytics answers are immutable for a given
// (dataset generation, algorithm, arguments) triple — the graph is a
// read-only structure and every registry algorithm is deterministic in
// the engine's fixed seed — so the service can answer repeats without
// re-running. Keys embed the dataset's generation, which every update and
// compaction advances, so no state ever serves another's answers, and
// arguments are canonicalized first (sage.CanonicalArgs), so {"eps":0}
// and {} hit the same entry.
//
// This is the serving tier's only response cache: the cluster router
// caches nothing, so a repeat read through it is this cache's hit on the
// owning replica, relayed verbatim.
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

	"sage"
)

// runKey identifies one computation: the algorithm and its canonical
// arguments over one generation of one dataset. It is comparable, so it
// is the map key itself — no per-request key string is built.
type runKey struct {
	dataset string
	gen     uint64
	algo    string
	args    sage.AlgoArgs
}

// cachedResult retains only pre-marshaled bytes — the full response and
// the value-less rendering served for ?value=false — so the byte budget
// covers everything the entry pins: no unserialized Θ(n)/Θ(m) result
// arrays ride along uncounted.
type cachedResult struct {
	body []byte // full response
	slim []byte // value omitted
}

func (r cachedResult) size() int64 { return int64(len(r.body) + len(r.slim)) }

// resultCache is a goroutine-safe least-recently-used map from runKey to
// cachedResult, bounded by entry count and by summed result size. A nil
// *resultCache is valid: it never holds anything and always misses.
type resultCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	ll       *list.List // of *cacheEntry; front = most recent
	byKey    map[runKey]*list.Element
	hits     atomic.Int64
	misses   atomic.Int64
}

type cacheEntry struct {
	key runKey
	val cachedResult
}

// defaultCacheBytes bounds a cache whose configured byte budget is zero.
const defaultCacheBytes = 64 << 20

// newResultCache returns a cache of up to max entries and maxBytes
// summed result sizes (64 MB when maxBytes <= 0), or nil — caching
// disabled — when max <= 0.
func newResultCache(max int, maxBytes int64) *resultCache {
	if max <= 0 {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return &resultCache{max: max, maxBytes: maxBytes, ll: list.New(), byKey: map[runKey]*list.Element{}}
}

// get returns the result cached under k and marks it most recent. Its
// byte slices are shared with later hits and must be treated as
// read-only.
func (c *resultCache) get(k runKey) (cachedResult, bool) {
	if c == nil {
		return cachedResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[k]
	if !found {
		c.misses.Add(1)
		return cachedResult{}, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put stores v under k, replacing any previous result and evicting
// least-recent entries beyond either bound. A result larger than a
// quarter of the byte budget is not stored.
func (c *resultCache) put(k runKey, v cachedResult) {
	if c == nil || v.size() > c.maxBytes/4 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(k)
	c.byKey[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	c.bytes += v.size()
	for c.ll.Len() > c.max || c.bytes > c.maxBytes {
		c.removeLocked(c.ll.Back().Value.(*cacheEntry).key)
	}
}

func (c *resultCache) removeLocked(k runKey) {
	el, ok := c.byKey[k]
	if !ok {
		return
	}
	c.ll.Remove(el)
	delete(c.byKey, k)
	c.bytes -= el.Value.(*cacheEntry).val.size()
}

// resultCacheStats is the /metrics view of the cache.
type resultCacheStats struct {
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
	Bytes      int64 `json:"bytes"`
	BytesLimit int64 `json:"bytes_limit"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
}

// stats snapshots the cache's occupancy and counters (zero when nil).
func (c *resultCache) stats() resultCacheStats {
	if c == nil {
		return resultCacheStats{}
	}
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return resultCacheStats{
		Entries:    entries,
		Capacity:   c.max,
		Bytes:      bytes,
		BytesLimit: c.maxBytes,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
	}
}
