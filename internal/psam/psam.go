// Package psam implements the Parallel Semi-Asymmetric Model from the Sage
// paper (§3): a two-level memory with a symmetric small-memory (DRAM) and
// an asymmetric large-memory (NVRAM) whose writes cost ω times its reads.
//
// Real Optane hardware is unavailable in this environment, so the package
// *simulates* the memory system: every graph or state access is charged to
// an account through sharded per-worker counters, and experiments report a
// deterministic simulated cost alongside wall-clock time. A direct-mapped
// cache simulator models Intel Memory Mode.
//
// The package is the simulator only — tracker, cache, space, modes. What
// it counts (costmodel.Counts), the weights it charges under
// (costmodel.Profile; the Optane default follows the measurements the
// paper cites [50, 96]: NVRAM writes 12x a DRAM access) and the pricing
// of one by the other (Profile.Cost) belong to internal/costmodel, which
// this package imports and which imports nothing of the module.
package psam

import (
	"sage/internal/costmodel"
	"sage/internal/parallel"
)

// shard is one worker's counters, padded to a cache line of its own so
// workers charging concurrently never share one.
type shard struct {
	c costmodel.Counts
	_ [64 - (6*8)%64]byte
}

// Tracker accumulates access counts across workers without contention:
// each worker charges its own shard (indexed by the worker id that the
// parallel package exposes) and Totals folds the shards.
type Tracker struct {
	shards [parallel.MaxWorkers]shard
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// DRAMRead charges words DRAM reads on the given worker shard.
func (t *Tracker) DRAMRead(worker int, words int64) {
	t.shards[worker].c.DRAMReads += words
}

// DRAMWrite charges words DRAM writes.
func (t *Tracker) DRAMWrite(worker int, words int64) {
	t.shards[worker].c.DRAMWrites += words
}

// NVRAMRead charges words NVRAM reads.
func (t *Tracker) NVRAMRead(worker int, words int64) {
	t.shards[worker].c.NVRAMReads += words
}

// NVRAMWrite charges words NVRAM writes.
func (t *Tracker) NVRAMWrite(worker int, words int64) {
	t.shards[worker].c.NVRAMWrites += words
}

// CacheAccess charges a Memory-Mode access outcome in words: hit words are
// DRAM reads (and are booked as such, besides the CacheHits statistic);
// miss words accumulate in the CacheMisses counter, which the profile
// weighs at the unhidden MissCost. Dirty evictions are charged separately
// as NVRAM writes by the caller.
func (t *Tracker) CacheAccess(worker int, hits, misses int64) {
	s := &t.shards[worker].c
	s.CacheHits += hits
	s.CacheMisses += misses
	s.DRAMReads += hits
}

// Totals folds all shards into one snapshot. It must not race with
// concurrent charging.
func (t *Tracker) Totals() costmodel.Counts {
	var out costmodel.Counts
	for i := range t.shards {
		out.Add(t.shards[i].c)
	}
	return out
}
