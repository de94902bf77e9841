package traverse

// Overlay-aware traversal equivalence: every edgeMap strategy over a
// base+delta overlay (internal/delta) must produce exactly the frontier
// it produces over the eagerly rebuilt static graph. This is what lets a
// snapshot run every registry algorithm unmodified — the traversal layer
// sees the overlay through the same Adj contract as any graph,
// decoding merged adjacency into per-worker scratch like a compressed
// representation.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/frontier"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// mergedCSR eagerly rebuilds the overlay's merged view as a plain CSR.
func mergedCSR(o *delta.Overlay) *graph.Graph {
	n := o.NumVertices()
	var edges []graph.WEdge
	var s graph.Scratch
	for v := uint32(0); v < n; v++ {
		nghs, ws := o.Slice(v, 0, o.Degree(v), &s)
		for i, u := range nghs {
			if v < u {
				w := int32(1)
				if ws != nil {
					w = ws[i]
				}
				edges = append(edges, graph.WEdge{U: v, V: u, W: w})
			}
		}
	}
	if !o.Weighted() {
		plain := make([]graph.Edge, len(edges))
		for i, e := range edges {
			plain[i] = graph.Edge{U: e.U, V: e.V}
		}
		return graph.FromEdges(n, plain, graph.BuildOpts{Symmetrize: true})
	}
	return graph.FromWeightedEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// randomOps builds a deterministic mixed insert/delete batch over an
// n-vertex graph.
func randomOps(n uint32, count int, seed uint64) []delta.Op {
	r := rand.New(rand.NewPCG(seed, 0xde17a))
	var ops []delta.Op
	for len(ops) < count {
		u, v := uint32(r.IntN(int(n))), uint32(r.IntN(int(n)))
		if u == v {
			continue
		}
		ops = append(ops, delta.Op{U: u, V: v, Del: r.IntN(3) == 0})
	}
	return ops
}

// TestOverlayStrategyEquivalence runs the cross-strategy net of
// equivalence_test.go with the graph behind a delta overlay: for random
// update batches over uncompressed and byte-compressed bases, every
// strategy on the overlay must match the Chunked reference on the eagerly
// rebuilt merged graph.
func TestOverlayStrategyEquivalence(t *testing.T) {
	rmat := gen.RMAT(9, 8, 11)
	pl := gen.PowerLaw(900, 5, 13)
	bases := []struct {
		name string
		g    graph.Adj
	}{
		{"rmat", rmat},
		{"rmat-byte64", compress.Compress(rmat, 64)},
		{"powerlaw", pl},
	}
	ops := Ops{Update: acceptEdge, UpdateAtomic: acceptEdge, Cond: CondTrue}
	variants := []struct {
		name string
		opt  Options
	}{
		{"chunked", Options{Strategy: Chunked, ForceSparse: true, Dedup: true}},
		{"blocked", Options{Strategy: Blocked, ForceSparse: true, Dedup: true}},
		{"sparse", Options{Strategy: Sparse, ForceSparse: true, Dedup: true}},
		{"dense", Options{ForceDense: true}},
	}
	oldWorkers := parallel.Workers()
	defer parallel.SetWorkers(oldWorkers)
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		for _, b := range bases {
			ov := delta.New(b.g)
			for batch := 0; batch < 3; batch++ {
				next, err := ov.Apply(randomOps(b.g.NumVertices(), 60, uint64(batch)*31+7))
				if err != nil {
					t.Fatal(err)
				}
				ov = next
				merged := mergedCSR(ov)
				if merged.NumEdges() != ov.NumEdges() {
					t.Fatalf("%s/batch%d: overlay m=%d, merged m=%d",
						b.name, batch, ov.NumEdges(), merged.NumEdges())
				}
				for trial := 0; trial < 2; trial++ {
					name := fmt.Sprintf("p%d/%s/batch%d/trial%d", workers, b.name, batch, trial)
					vs := randomFrontier(b.g.NumVertices(), 0.05*float64(trial+1), uint64(trial)*3+1)
					env := psam.NewEnv(psam.AppDirect)
					ref := runSorted(merged, env, vs, ops, variants[0].opt)
					for _, v := range variants {
						got := runSorted(ov, env, cloneSubset(vs), ops, v.opt)
						if !equalU32(ref, got) {
							t.Fatalf("%s: overlay %s disagrees with merged reference: %d vs %d targets",
								name, v.name, len(got), len(ref))
						}
					}
				}
			}
		}
	}
}

// cloneSubset guards against edgeMap variants consuming the input subset.
func cloneSubset(vs *frontier.VertexSubset) *frontier.VertexSubset {
	ids := append([]uint32(nil), vs.Sparse()...)
	return frontier.FromSparse(vs.N(), ids)
}
