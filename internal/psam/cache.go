package psam

import "sync/atomic"

// CacheBlockWords is the granularity of the Memory-Mode cache simulator:
// 32 words = 256 bytes, the effective access granularity the paper reports
// for Optane DIMMs [50].
const CacheBlockWords = 32

// Cache simulates Intel Memory Mode (§5.1.2): DRAM acting as a
// direct-mapped cache over NVRAM. Addresses are word indices into a flat
// simulated NVRAM address space (the graph regions). The tag array is
// shared across workers and updated with atomic operations; racing updates
// perturb the hit rate exactly as they would in shared hardware, without
// introducing Go data races.
type Cache struct {
	// tags[i] holds (blockID+1) << 1 | dirty; 0 means empty.
	tags  []uint64
	lines uint64
}

// NewCache returns a direct-mapped cache with capacityWords of simulated
// DRAM (rounded down to whole blocks, minimum one line).
func NewCache(capacityWords int64) *Cache {
	lines := capacityWords / CacheBlockWords
	if lines < 1 {
		lines = 1
	}
	return &Cache{tags: make([]uint64, lines), lines: uint64(lines)}
}

// Lines reports the number of cache lines.
func (c *Cache) Lines() int64 { return int64(c.lines) }

// access touches one block and returns (hit, evictedDirty).
func (c *Cache) access(block uint64, write bool) (bool, bool) {
	line := block % c.lines
	want := (block + 1) << 1
	for {
		cur := atomic.LoadUint64(&c.tags[line])
		if cur>>1 == block+1 {
			if write && cur&1 == 0 {
				if !atomic.CompareAndSwapUint64(&c.tags[line], cur, cur|1) {
					continue
				}
			}
			return true, false
		}
		newTag := want
		if write {
			newTag |= 1
		}
		if atomic.CompareAndSwapUint64(&c.tags[line], cur, newTag) {
			return false, cur != 0 && cur&1 == 1
		}
	}
}

// AccessRange simulates an access to words [addr, addr+words) and returns
// the number of block hits, block misses, and dirty writebacks incurred.
func (c *Cache) AccessRange(addr, words int64, write bool) (hits, misses, writebacks int64) {
	if words <= 0 {
		return 0, 0, 0
	}
	first := uint64(addr) / CacheBlockWords
	last := uint64(addr+words-1) / CacheBlockWords
	for b := first; b <= last; b++ {
		hit, dirty := c.access(b, write)
		if hit {
			hits++
		} else {
			misses++
		}
		if dirty {
			writebacks++
		}
	}
	return hits, misses, writebacks
}
