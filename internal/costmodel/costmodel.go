// Package costmodel owns the repo's one cost vocabulary: the count vector
// a run produces (Counts), the weights a hardware family prices it with
// (Profile), and the one function that turns the two into a cost in
// DRAM-access units ((*Profile).Cost). It is a leaf — it imports no other
// package of this module — and the PSAM simulator (internal/psam) imports
// it: tracker shards are Counts, an Env charges under a Profile, and
// Env.Cost calls Profile.Cost, so a measured cost, a predicted cost and
// the serving layer's X-Sage-Cost-* headers all come out of the same
// function under the same weights.
//
// A Profile generalizes the PSAM's single hardcoded hardware point —
// Optane's read/write asymmetry (§3.1) — to explicit per-operation charge
// weights and energy constants. Like the PSAM, it prices a run in
// unit-less accesses and converts none of them into time. The built-ins
// cover the families the paper's §5 discussion and the related work span:
//
//   - Optane: the PSAM defaults — unit-charged reads, ω=12 writes.
//   - DRAM-only: symmetric memory, the in-memory baseline.
//   - ReRAM: GraphR-style constants — reads near DRAM, writes an order
//     of magnitude more expensive in both cost and energy.
//   - Flash/CSD: page-granular I/O — Cost bills ceil(words/PageWords)
//     device pages (DefaultPageCost each) for the total large-memory
//     words of the counts it prices, reads and writes separately. It
//     rounds a whole run's total, not each access: the per-access page
//     of the semi-external systems is internal/semiext's device.
//
// Serving layers act on the predictions: cost-based admission, overlay
// auto-compaction, and the Auto traversal's direction choice all price
// their alternatives through the same function.
package costmodel

// PageWords is the simulated device page: 4 KB = 512 words.
const PageWords = 512

// DefaultPageCost is the simulated cost of one page I/O in DRAM-word
// units. A 4 KB read from a fast SSD (~50 µs) against ~5 ns DRAM words
// would be ~10⁴; we use a conservative 2048 (NVMe-class striped arrays)
// so the comparison is generous to the semi-external systems.
const DefaultPageCost = 2048

// Counts is the access-count vector of one account: what a tracker shard
// accumulates, what a run reports, and what a Profile prices.
type Counts struct {
	DRAMReads   int64
	DRAMWrites  int64
	NVRAMReads  int64
	NVRAMWrites int64
	// CacheHits/CacheMisses are populated only under Memory Mode. Hit
	// words are also booked as DRAMReads (a hit is a DRAM access), so
	// pricing charges them once, through DRAMReads.
	CacheHits   int64
	CacheMisses int64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.DRAMReads += o.DRAMReads
	c.DRAMWrites += o.DRAMWrites
	c.NVRAMReads += o.NVRAMReads
	c.NVRAMWrites += o.NVRAMWrites
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
}

// Sub removes o from c.
func (c *Counts) Sub(o Counts) {
	c.DRAMReads -= o.DRAMReads
	c.DRAMWrites -= o.DRAMWrites
	c.NVRAMReads -= o.NVRAMReads
	c.NVRAMWrites -= o.NVRAMWrites
	c.CacheHits -= o.CacheHits
	c.CacheMisses -= o.CacheMisses
}

// Profile is a hardware cost profile: per-operation charge weights in
// DRAM-access units plus per-operation energy constants. The
// zero value is unusable; start from a built-in (Optane, DRAMOnly, ReRAM,
// FlashCSD) and override fields.
type Profile struct {
	// ModelName is the registry key reported by Name().
	ModelName string
	// NVRAMRead is the charge per NVRAM word read. The PSAM charges reads
	// unit cost (§3.2: although NVRAM reads are ~3x a DRAM access, the
	// gap is hidden by memory-level parallelism and the model
	// deliberately charges both 1); raise it for sensitivity studies of
	// the read gap.
	NVRAMRead int64
	// Omega is the multiplier of a large-memory write over a read (§3.1).
	// With unit-charged reads, the paper's full write penalty — 4x an
	// NVRAM read, 12x a DRAM access [50, 96] — folds into Omega = 12.
	Omega int64
	// MissCost is the charge per word of a Memory-Mode cache miss. Unlike
	// Sage's software-managed App-Direct reads, a Memory-Mode miss is a
	// hardware-managed 256-byte fill whose latency is not hidden — the
	// paper's observation that "the DRAM hit rate dominates memory
	// performance" in this mode (§5.1.2).
	MissCost int64
	// PageGranular marks device families (flash/CSD) whose large memory
	// moves whole pages: word-level NVRAM counts are charged as
	// ceil(words/PageWords) page transfers instead of per word.
	PageGranular bool
	// PageCost is the charge per device page transfer, in DRAM-access
	// units (see DefaultPageCost for the framing).
	PageCost int64
	// Energy constants, picojoules: per word for the memory classes, per
	// page transfer for EPage.
	EDRAMRead   float64
	EDRAMWrite  float64
	ENVRAMRead  float64
	ENVRAMWrite float64
	EMiss       float64
	EPage       float64
}

// Name returns the registry key.
func (p *Profile) Name() string { return p.ModelName }

// pages converts a word count to device-page transfers (round up).
//
//sage:hotpath
func pages(words int64) int64 {
	return (words + PageWords - 1) / PageWords
}

// Cost prices c under the profile in DRAM-access units — the PSAM cost of
// §3.1, and the only cost formula in the module: DRAM accesses at unit
// cost, Memory-Mode miss fills at the unhidden read gap, and large-memory
// reads and writes per word (NVRAMRead, NVRAMRead·Omega) or, on
// page-granular profiles, per page transfer.
//
//sage:hotpath
func (p *Profile) Cost(c Counts) int64 {
	// Cache hits are already in DRAMReads; only the miss fill costs extra.
	cost := c.DRAMReads + c.DRAMWrites + p.MissCost*c.CacheMisses
	if p.PageGranular {
		cost += p.PageCost * pages(c.NVRAMReads)
		cost += p.PageCost * p.Omega * pages(c.NVRAMWrites)
	} else {
		cost += p.NVRAMRead * c.NVRAMReads
		cost += p.NVRAMRead * p.Omega * c.NVRAMWrites
	}
	return cost
}

// EnergyNJ prices c's accesses with the profile's per-operation energy
// constants, in nanojoules. Like Cost it bills a Memory-Mode hit word
// once, as the DRAM read it is booked as.
//
//sage:hotpath
func (p *Profile) EnergyNJ(c Counts) float64 {
	pj := float64(c.DRAMReads)*p.EDRAMRead +
		float64(c.DRAMWrites)*p.EDRAMWrite +
		float64(c.CacheMisses)*p.EMiss
	if p.PageGranular {
		pj += float64(pages(c.NVRAMReads)) * p.EPage
		pj += float64(pages(c.NVRAMWrites)) * p.EPage * float64(p.Omega)
	} else {
		pj += float64(c.NVRAMReads) * p.ENVRAMRead
		pj += float64(c.NVRAMWrites) * p.ENVRAMWrite
	}
	return pj / 1000
}

// Optane is the PSAM of §3 — today's engine defaults. Reads are charged
// unit cost (the ~3x device gap is hidden by memory-level parallelism,
// §3.2), writes the measured 12x-DRAM penalty [50, 96]. Energy constants
// follow the same shape: reads a few times DRAM, writes an order of
// magnitude above.
func Optane() Profile {
	return Profile{
		ModelName: "optane",
		NVRAMRead: 1, Omega: 12, MissCost: 3,
		EDRAMRead: 25, EDRAMWrite: 25,
		ENVRAMRead: 60, ENVRAMWrite: 250,
		EMiss: 180, // a 256B hardware fill's energy, amortized per word
	}
}

// DRAMOnly is symmetric memory: the in-memory baseline where the
// semi-asymmetric discipline buys nothing and algorithm choice should
// revert to write-liberal variants.
func DRAMOnly() Profile {
	return Profile{
		ModelName: "dram",
		NVRAMRead: 1, Omega: 1, MissCost: 1,
		EDRAMRead: 25, EDRAMWrite: 25,
		ENVRAMRead: 25, ENVRAMWrite: 25,
		EMiss: 25,
	}
}

// ReRAM uses GraphR-style constants: reads near DRAM cost, writes an
// order of magnitude more expensive in cost and dominated by cell
// programming energy — a steeper asymmetry than Optane on the write
// side, with cheap reads.
func ReRAM() Profile {
	return Profile{
		ModelName: "reram",
		NVRAMRead: 2, Omega: 8, MissCost: 2,
		EDRAMRead: 25, EDRAMWrite: 25,
		ENVRAMRead: 40, ENVRAMWrite: 600,
		EMiss: 120,
	}
}

// FlashCSD models flash or computational-storage devices with the
// page-cost framing internal/semiext shares: the device moves 4KB pages
// (PageWords words) at DefaultPageCost DRAM-access units each, and writes
// pay a program/erase multiplier. Cost bills the priced counts' total
// large-memory reads as ceil(words/PageWords) pages (writes likewise,
// times Omega); it does not bill each scattered read its own page, which
// is internal/semiext's per-access device, not this simulator's.
func FlashCSD() Profile {
	return Profile{
		ModelName:    "flash",
		PageGranular: true,
		PageCost:     DefaultPageCost,
		Omega:        4, MissCost: 3,
		EDRAMRead: 25, EDRAMWrite: 25,
		EMiss: 180,
		EPage: 25000, // ~25 nJ per 4KB page transfer
	}
}

// Models enumerates the built-in profiles in registry order.
func Models() []Profile {
	return []Profile{Optane(), DRAMOnly(), ReRAM(), FlashCSD()}
}

// Lookup resolves a built-in profile by name.
func Lookup(name string) (Profile, bool) {
	for _, p := range Models() {
		if p.ModelName == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns the built-in profile names in registry order.
func Names() []string {
	models := Models()
	out := make([]string, len(models))
	for i := range models {
		out[i] = models[i].ModelName
	}
	return out
}

// OverlayOverhead predicts the extra cost one full-edge traversal pays
// because a dataset's updates still live in its delta overlay instead of
// the compacted base container: every traversal re-reads the DRAM-resident
// delta (deltaWords), merges the added arcs outside the zero-copy flat
// path (arcsAdded extra small-memory reads), and still scans the deleted
// arcs in the base before filtering them (arcsDeleted large-memory reads).
// The server's auto-compaction hysteresis tracks this quantity per
// dataset and fires when it crosses the configured band.
func OverlayOverhead(p *Profile, deltaWords int64, arcsAdded, arcsDeleted uint64) int64 {
	return p.Cost(Counts{
		DRAMReads:  deltaWords + int64(arcsAdded),
		NVRAMReads: int64(arcsDeleted),
	})
}
