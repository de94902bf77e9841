package sage

import (
	"fmt"

	"sage/internal/algos"
	"sage/internal/costmodel"
)

// CostModel is a pluggable hardware cost profile: per-operation charge
// weights in DRAM-access units plus latency and energy constants, mapping
// PSAM-style operation counts to predicted cost, latency, and energy. An
// engine's model is what its runs' simulator charges under (so measured
// PSAM costs are the model's own pricing), prices the Auto traversal
// strategy's per-call direction decisions, and backs
// PredictCost/CostOfStats — which the serving layer in turn uses for
// cost-based admission, overlay auto-compaction, and the X-Sage-Cost-*
// response headers.
type CostModel = costmodel.Profile

// CostModelOptane is the Optane NVRAM profile — today's PSAM defaults
// (§3.1): unit-charged reads, ω=12 writes. Engines built without
// WithModel use it, so selecting it explicitly changes nothing.
func CostModelOptane() CostModel { return costmodel.Optane() }

// CostModelDRAM is the symmetric DRAM-only profile.
func CostModelDRAM() CostModel { return costmodel.DRAMOnly() }

// CostModelReRAM is a GraphR-style ReRAM profile: near-DRAM reads,
// write latency and energy an order of magnitude above.
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
// model's latency and energy projections.
type CostEstimate struct {
	// Model is the profile's registry name.
	Model string
	// Cost is the cost in DRAM-access units (the PSAM's currency).
	Cost int64
	// LatencyNS is the projected serial access latency in nanoseconds.
	LatencyNS float64
	// EnergyNJ is the projected access energy in nanojoules.
	EnergyNJ float64
}

// String formats the estimate compactly.
func (c CostEstimate) String() string {
	return fmt.Sprintf("model=%s cost=%d latency=%.0fns energy=%.0fnJ",
		c.Model, c.Cost, c.LatencyNS, c.EnergyNJ)
}

// estimateOf prices a count vector under the engine's model.
func (e *Engine) estimateOf(c costmodel.Counts) CostEstimate {
	p := &e.cfg.model
	return CostEstimate{
		Model:     p.Name(),
		Cost:      p.Cost(c),
		LatencyNS: p.LatencyNS(c),
		EnergyNJ:  p.EnergyNJ(c),
	}
}

// PredictCost estimates the cost of running the named registry algorithm
// on g before executing it, from the algorithm's cost class and the
// graph's (n, m) alone (costmodel.EstimateOps). The estimate is
// deliberately coarse — the right order of magnitude and the right
// profile sensitivity, not a per-algorithm fit; the serving layer sheds
// load on it and reports it in the X-Sage-Cost-Predicted header.
func (e *Engine) PredictCost(algo string, g *Graph) (CostEstimate, error) {
	spec, ok := algos.Lookup(algo)
	if !ok {
		return CostEstimate{}, fmt.Errorf("sage: unknown algorithm %q", algo)
	}
	ops := costmodel.EstimateOps(spec.CostClass, uint64(g.NumVertices()), g.NumEdges())
	return e.estimateOf(ops), nil
}

// CostOfStats prices a run's measured counters under the engine's model —
// the "actual" side of the predicted-vs-actual cost headers. Under every
// model CostOfStats(s).Cost equals s.PSAMCost (both are the model's Cost
// of the same counters); the latency and energy projections add the
// model's physical constants.
func (e *Engine) CostOfStats(s RunStats) CostEstimate {
	return e.estimateOf(s.Counts)
}
