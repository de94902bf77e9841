package store

// A shared cache of opened datasets. Long-lived consumers — the serving
// layer's dataset catalog, the benchmark harness's workload cache — want
// the same thing: open a stored graph once, share the (usually mmap-backed)
// dataset across many concurrent users, and close it only when nobody
// holds it and the configured budget forces it out. The cache provides
// exactly that: refcounted acquisition keyed by path, LRU eviction of idle
// entries under a simulated-word budget, and detach-on-invalidate for a
// file rewritten in place. It keeps no version of what a path serves:
// a mapping is read-only, so reopening one changes nothing a caller could
// have derived from it, and versioning a dataset's mutable state is the
// job of whoever owns that state.

import (
	"sync"
)

// Cache is a refcounted, budgeted cache of opened datasets keyed by path.
// All methods are safe for concurrent use.
type Cache struct {
	mu sync.Mutex
	// budgetWords caps the summed SizeWords of cached datasets; 0 means
	// unlimited. The budget is enforced against idle entries only: a
	// dataset some handle still references is never closed, so a burst of
	// concurrent acquisitions may overshoot until handles are released.
	budgetWords int64
	seq         uint64
	entries     map[string]*cacheEntry
	openWords   int64
	hits        int64
	misses      int64
	evictions   int64
}

type cacheEntry struct {
	path    string
	ds      *Dataset
	words   int64
	refs    int
	lastUse uint64
	// detached entries have been removed from the map by Invalidate while
	// some handle still referenced them: the dataset closes when the last
	// handle releases, never under a reader.
	detached bool
}

// Handle is one acquisition of a cached dataset. The dataset stays open —
// and its mmap valid — at least until Release.
type Handle struct {
	c        *Cache
	e        *cacheEntry
	released bool
	// peek handles (AcquireCached) do not count as uses: neither the
	// acquisition nor its Release stamps recency, so monitoring reads
	// cannot perturb the LRU order real queries establish.
	peek bool
}

// NewCache returns an empty cache evicting idle datasets beyond
// budgetWords summed SizeWords (0 = never evict).
func NewCache(budgetWords int64) *Cache {
	return &Cache{
		budgetWords: budgetWords,
		entries:     map[string]*cacheEntry{},
	}
}

// Acquire returns a handle on the dataset stored at path, opening it on
// first use (opts apply only to that first open; later hits share the
// original dataset regardless of opts).
func (c *Cache) Acquire(path string, opts OpenOptions) (*Handle, error) {
	c.mu.Lock()
	if e, ok := c.entries[path]; ok {
		c.hits++
		h := c.handle(e) // refs++ under the lock: eviction must not win
		c.mu.Unlock()
		return h, nil
	}
	c.misses++
	c.mu.Unlock()

	// Open outside the lock: parsing a large text graph or faulting a
	// container header must not serialize unrelated acquisitions.
	ds, err := Open(path, opts)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if e, ok := c.entries[path]; ok {
		// Lost an open race; keep the incumbent and drop ours.
		h := c.handle(e)
		c.mu.Unlock()
		_ = ds.Close() // lost the insert race; the cached copy wins
		return h, nil
	}
	e := &cacheEntry{path: path, ds: ds, words: ds.SizeWords()}
	c.entries[path] = e
	c.openWords += e.words
	h := c.handle(e)
	c.evictLocked()
	c.mu.Unlock()
	return h, nil
}

// AcquireCached returns a handle only when path is already open in the
// cache; it never opens the file itself. Listings use it to report open
// datasets without forcing lazy opens. The peek does not count as a use
// for LRU purposes.
func (c *Cache) AcquireCached(path string) (*Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[path]
	if !ok {
		return nil, false
	}
	e.refs++
	return &Handle{c: c, e: e, peek: true}, true
}

// handle refs e and stamps its recency. Callers hold c.mu.
func (c *Cache) handle(e *cacheEntry) *Handle {
	e.refs++
	c.seq++
	e.lastUse = c.seq
	return &Handle{c: c, e: e}
}

// evictLocked closes idle LRU entries until the budget holds (or only
// referenced entries remain). Callers hold c.mu.
func (c *Cache) evictLocked() {
	for c.budgetWords > 0 && c.openWords > c.budgetWords {
		var victim *cacheEntry
		for _, e := range c.entries {
			if e.refs == 0 && (victim == nil || e.lastUse < victim.lastUse) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.path)
		c.openWords -= victim.words
		c.evictions++
		_ = victim.ds.Close()
	}
}

// Dataset returns the cached dataset. Valid until Release.
func (h *Handle) Dataset() *Dataset { return h.e.ds }

// Release returns the handle. The dataset may be evicted (and its mapping
// unmapped) any time afterwards, so the handle's graph must not be used
// again. Releasing twice panics: it would undercount some other holder's
// reference.
func (h *Handle) Release() {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.released {
		panic("store: dataset handle released twice")
	}
	h.released = true
	h.e.refs--
	if h.e.detached && h.e.refs == 0 {
		_ = h.e.ds.Close() // the invalidated dataset's last reader is gone
		return
	}
	if !h.peek {
		c.seq++
		h.e.lastUse = c.seq
	}
	c.evictLocked()
}

// Invalidate detaches the cached dataset for path, reporting whether an
// entry was present: future Acquires reopen the file, while the detached
// dataset stays open — and every outstanding handle readable — until its
// last handle releases. Callers that rewrite a stored graph in place
// (compaction) use it so new requests map the new file while in-flight
// runs finish on the old one.
func (c *Cache) Invalidate(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[path]
	if !ok {
		return false
	}
	delete(c.entries, path)
	c.openWords -= e.words
	c.evictions++
	if e.refs == 0 {
		_ = e.ds.Close()
	} else {
		e.detached = true
	}
	return true
}

// Evict closes the idle cached dataset for path, reporting whether an
// entry was removed (false when absent or still referenced). Callers
// about to rewrite a stored graph use it to drop the stale mapping.
func (c *Cache) Evict(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[path]
	if !ok || e.refs > 0 {
		return false
	}
	delete(c.entries, path)
	c.openWords -= e.words
	c.evictions++
	_ = e.ds.Close()
	return true
}

// Clear closes every idle cached dataset (entries some handle still
// references are left open) and returns the first close error.
func (c *Cache) Clear() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for path, e := range c.entries {
		if e.refs > 0 {
			continue
		}
		delete(c.entries, path)
		c.openWords -= e.words
		if err := e.ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CacheInfo is a counters snapshot for monitoring endpoints (the JSON
// names are the wire format of sage-serve's /metrics).
type CacheInfo struct {
	// Open counts datasets currently open; OpenWords sums their
	// SizeWords.
	Open      int   `json:"open"`
	OpenWords int64 `json:"open_words"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Info returns current cache counters.
func (c *Cache) Info() CacheInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheInfo{
		Open:      len(c.entries),
		OpenWords: c.openWords,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
