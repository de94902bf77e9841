package psam

import (
	"context"

	"sage/internal/costmodel"
)

// Mode selects where the graph and the algorithm's temporary state live,
// matching the experimental configurations of §5.4 and §5.5.
type Mode int

const (
	// DRAMOnly stores graph and state in DRAM (the GBBS-DRAM and
	// Sage-DRAM configurations of Figure 7).
	DRAMOnly Mode = iota
	// AppDirect stores the graph in byte-addressable NVRAM and all state
	// in DRAM — the Sage configuration (§5.1.2).
	AppDirect
	// MemoryMode stores the graph in NVRAM behind a direct-mapped DRAM
	// cache — the GBBS-MemMode and Galois configurations (Figure 1).
	MemoryMode
	// NVRAMAll stores the graph and every temporary in NVRAM, emulating
	// unmodified DRAM code run under libvmmalloc (Figure 7, pink bars).
	NVRAMAll
)

// String returns the configuration name used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case DRAMOnly:
		return "DRAM"
	case AppDirect:
		return "NVRAM(AppDirect)"
	case MemoryMode:
		return "NVRAM(MemoryMode)"
	case NVRAMAll:
		return "NVRAM(libvmmalloc)"
	}
	return "unknown"
}

// Env bundles the simulated memory system that every Sage operation runs
// against: the cost profile it charges under, the access-count tracker,
// the small-memory space tracker, and (under MemoryMode) the cache
// simulator.
// A nil *Env is valid and disables all accounting, so the algorithms can
// run at full speed for pure wall-clock measurements.
type Env struct {
	Profile costmodel.Profile
	Mode    Mode
	Track   *Tracker
	Space   *Space
	Cache   *Cache

	// Ctx, when non-nil, is the cancellation context of the run this
	// environment accounts for. Algorithms poll it through Checkpoint at
	// frontier/iteration boundaries; a cancelled context unwinds the run
	// with a Cancellation panic that the public API converts back into
	// ctx.Err(). Ctx is written only by the goroutine driving the run,
	// between algorithm calls — never by the parallel workers.
	Ctx context.Context
}

// Cancellation is the panic payload that unwinds an algorithm whose
// context was cancelled at a Checkpoint. The engine's Run wrapper
// recovers it and returns Err; any other panic value is re-raised.
type Cancellation struct{ Err error }

// Checkpoint polls the bound context and unwinds the run with a
// Cancellation panic if it is done. It is called at frontier and
// iteration boundaries, always from the goroutine driving the algorithm
// (never inside a parallel loop body, where a panic could not be
// recovered by the caller). A nil Env or unbound context is a no-op, so
// accounting-free runs and internal callers are unaffected.
func (e *Env) Checkpoint() {
	if e == nil || e.Ctx == nil {
		return
	}
	select {
	case <-e.Ctx.Done():
		panic(Cancellation{Err: e.Ctx.Err()})
	default:
	}
}

// NewEnv returns an accounting environment for the given mode under the
// Optane profile (the PSAM of §3). Under MemoryMode the cache must be
// attached separately via WithCache (its size depends on the experiment).
func NewEnv(mode Mode) *Env {
	return &Env{
		Profile: costmodel.Optane(),
		Mode:    mode,
		Track:   NewTracker(),
		Space:   NewSpace(),
	}
}

// WithCache attaches a Memory-Mode cache with the given simulated DRAM
// capacity in words and returns e.
func (e *Env) WithCache(capacityWords int64) *Env {
	e.Cache = NewCache(capacityWords)
	return e
}

// Totals returns the accumulated access counts.
func (e *Env) Totals() costmodel.Counts {
	if e == nil || e.Track == nil {
		return costmodel.Counts{}
	}
	return e.Track.Totals()
}

// Cost returns the simulated PSAM cost accumulated so far: the tracker's
// totals priced by the environment's profile.
func (e *Env) Cost() int64 {
	if e == nil || e.Track == nil {
		return 0
	}
	return e.Profile.Cost(e.Track.Totals())
}

// GraphRead charges a read of words words of graph data starting at the
// simulated word address addr. Under MemoryMode the address determines
// cache behaviour; in the other modes only the word count matters.
func (e *Env) GraphRead(worker int, addr, words int64) {
	if e == nil || e.Track == nil || words == 0 {
		return
	}
	switch e.Mode {
	case DRAMOnly:
		e.Track.DRAMRead(worker, words)
	case AppDirect, NVRAMAll:
		e.Track.NVRAMRead(worker, words)
	case MemoryMode:
		hits, misses, wb := e.Cache.AccessRange(addr, words, false)
		e.Track.CacheAccess(worker, hits*CacheBlockWords, misses*CacheBlockWords)
		e.Track.NVRAMWrite(worker, wb*CacheBlockWords)
	}
}

// GraphWrite charges a write of words words of graph data at addr. Sage
// algorithms never call this (their discipline is a read-only graph); the
// GBBS mutation baselines do.
func (e *Env) GraphWrite(worker int, addr, words int64) {
	if e == nil || e.Track == nil || words == 0 {
		return
	}
	switch e.Mode {
	case DRAMOnly:
		e.Track.DRAMWrite(worker, words)
	case AppDirect, NVRAMAll:
		e.Track.NVRAMWrite(worker, words)
	case MemoryMode:
		hits, misses, wb := e.Cache.AccessRange(addr, words, true)
		e.Track.CacheAccess(worker, hits*CacheBlockWords, misses*CacheBlockWords)
		e.Track.DRAMWrite(worker, words)
		e.Track.NVRAMWrite(worker, wb*CacheBlockWords)
	}
}

// StateRead charges a read of algorithm state (frontiers, parents, filter
// bits, buckets). State lives in DRAM except under NVRAMAll.
func (e *Env) StateRead(worker int, words int64) {
	if e == nil || e.Track == nil || words == 0 {
		return
	}
	if e.Mode == NVRAMAll {
		e.Track.NVRAMRead(worker, words)
		return
	}
	e.Track.DRAMRead(worker, words)
}

// StateWrite charges a write of algorithm state.
func (e *Env) StateWrite(worker int, words int64) {
	if e == nil || e.Track == nil || words == 0 {
		return
	}
	if e.Mode == NVRAMAll {
		e.Track.NVRAMWrite(worker, words)
		return
	}
	e.Track.DRAMWrite(worker, words)
}

// Alloc records a small-memory allocation of words words. Under NVRAMAll
// (the libvmmalloc emulation) the allocation itself is charged as NVRAM
// writes: libvmmalloc places every heap allocation in NVRAM, where the
// allocator's zeroing and the algorithm's first touch materialize the
// array on the device — the dominant cost that makes unmodified DRAM
// codes 6.69x slower than Sage in Figure 7.
func (e *Env) Alloc(words int64) {
	if e == nil {
		return
	}
	e.Space.Alloc(words)
	if e.Mode == NVRAMAll && e.Track != nil && words > 0 {
		e.Track.NVRAMWrite(0, words)
	}
}

// Free records a small-memory release.
func (e *Env) Free(words int64) {
	if e == nil {
		return
	}
	e.Space.Free(words)
}
