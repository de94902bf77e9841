package sage

import (
	"fmt"

	"sage/internal/algos"
	"sage/internal/costmodel"
)

// CostModel is a pluggable hardware cost profile: per-operation charge
// weights in DRAM-access units plus energy constants, mapping PSAM-style
// operation counts to predicted cost and energy. Like the PSAM, it prices
// a run in unit-less accesses and converts none of them into time. An
// engine's model is what its runs' simulator charges under (so measured
// PSAM costs are the model's own pricing), prices the Auto traversal
// strategy's per-call direction decisions, backs PredictCost/CostOfStats,
// and prices the serving layer's cost-based admission, overlay
// auto-compaction, and X-Sage-Cost-* response headers.
type CostModel = costmodel.Profile

// CostModelOptane is the Optane NVRAM profile — today's PSAM defaults
// (§3.1): unit-charged reads, ω=12 writes. Engines built without
// WithModel use it, so selecting it explicitly changes nothing.
func CostModelOptane() CostModel { return costmodel.Optane() }

// CostModelDRAM is the symmetric DRAM-only profile.
func CostModelDRAM() CostModel { return costmodel.DRAMOnly() }

// CostModelReRAM is a GraphR-style ReRAM profile: near-DRAM reads,
// write cost and energy an order of magnitude above.
func CostModelReRAM() CostModel { return costmodel.ReRAM() }

// CostModelFlash is a flash/CSD profile with page-granular large-memory
// I/O (internal/semiext's page-cost framing): a run's total large-memory
// words bill ceil(words/512) device pages, reads and writes separately.
func CostModelFlash() CostModel { return costmodel.FlashCSD() }

// CostModels returns the built-in profiles in registry order.
func CostModels() []CostModel { return costmodel.Models() }

// CostModelNames returns the built-in profile names ("optane", "dram",
// "reram", "flash") in registry order.
func CostModelNames() []string { return costmodel.Names() }

// LookupCostModel resolves a built-in profile by name.
func LookupCostModel(name string) (CostModel, bool) { return costmodel.Lookup(name) }

// Model reports the engine's hardware cost profile.
func (e *Engine) Model() CostModel { return e.cfg.model }

// CostEstimate is a priced operation-count vector: the predicted (or
// measured) cost in DRAM-access units under a named model, with the
// model's energy projection.
type CostEstimate struct {
	// Model is the profile's registry name.
	Model string
	// Cost is the cost in DRAM-access units (the PSAM's currency).
	Cost int64
	// EnergyNJ is the projected access energy in nanojoules.
	EnergyNJ float64
}

// String formats the estimate compactly.
func (c CostEstimate) String() string {
	return fmt.Sprintf("model=%s cost=%d energy=%.0fnJ", c.Model, c.Cost, c.EnergyNJ)
}

// estimateOf prices a count vector under the engine's model.
func (e *Engine) estimateOf(c costmodel.Counts) CostEstimate {
	p := &e.cfg.model
	return CostEstimate{
		Model:    p.Name(),
		Cost:     p.Cost(c),
		EnergyNJ: p.EnergyNJ(c),
	}
}

// PredictCost is the seed estimate of running the named registry
// algorithm on g, whatever the algorithm: one edge pass (m + 2n
// large-memory reads, m small-memory reads, 4n writes) priced by the
// engine's model. The serving layer replaces it with the cost it learns
// per dataset and algorithm once that algorithm has run there.
func (e *Engine) PredictCost(algo string, g *Graph) (CostEstimate, error) {
	if _, ok := algos.Lookup(algo); !ok {
		return CostEstimate{}, fmt.Errorf("sage: unknown algorithm %q", algo)
	}
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	return e.estimateOf(costmodel.Counts{NVRAMReads: m + 2*n, DRAMReads: m, DRAMWrites: 4 * n}), nil
}

// CostOfStats prices a run's measured counters under the engine's model —
// the "actual" side of the predicted-vs-actual cost headers. Under every
// model CostOfStats(s).Cost equals s.PSAMCost (both are the model's Cost
// of the same counters); the energy projection adds the model's energy
// constants.
func (e *Engine) CostOfStats(s RunStats) CostEstimate {
	return e.estimateOf(s.Counts)
}
