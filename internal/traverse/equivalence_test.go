package traverse

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"sage/internal/compress"
	"sage/internal/costmodel"
	"sage/internal/frontier"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// acceptEdge is a pure pseudo-random predicate over (source, target,
// weight): the "random ops" of the cross-strategy equivalence test. Being
// pure makes the edgeMap output a function of the frontier alone, so every
// strategy must produce the same target set.
func acceptEdge(s, d uint32, w int32) bool {
	x := uint64(s)<<32 | uint64(d)
	x ^= uint64(uint32(w)) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x&3 != 0
}

// randomFrontier returns a deterministic pseudo-random vertex subset with
// inclusion probability p.
func randomFrontier(n uint32, p float64, seed uint64) *frontier.VertexSubset {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	var ids []uint32
	for v := uint32(0); v < n; v++ {
		if r.Float64() < p {
			ids = append(ids, v)
		}
	}
	return frontier.FromSparse(n, ids)
}

// TestCrossStrategyEquivalence is the safety net for the inner-loop
// rewrite: the same traversal (pure random ops over random R-MAT and
// power-law inputs, weighted and unweighted, compressed and uncompressed)
// must produce identical output frontiers under Chunked, Blocked, Sparse,
// and forced-Dense execution. The power-law inputs have n = 1500, not a
// multiple of 64, so the dense traversal's last bitmap word is partial;
// 1, 2 and 4 workers split the pull scan's blocks among different owners.
func TestCrossStrategyEquivalence(t *testing.T) {
	rmat := gen.RMAT(10, 8, 3)
	pl := gen.PowerLaw(1500, 6, 5)
	wrmat := gen.AddUniformWeights(rmat, 9)
	cases := []struct {
		name string
		g    graph.Adj
	}{
		{"rmat", rmat},
		{"rmat-byte64", compress.Compress(rmat, 64)},
		{"powerlaw", pl},
		{"powerlaw-byte32", compress.Compress(pl, 32)},
		{"wrmat", wrmat},
		{"wrmat-byte64", compress.Compress(wrmat, 64)},
	}
	ops := Ops{
		Update:       acceptEdge,
		UpdateAtomic: acceptEdge,
		Cond:         CondTrue,
	}
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
	for _, workers := range []int{1, 2, 4} {
		parallel.SetWorkers(workers)
		for _, tc := range cases {
			for trial := 0; trial < 3; trial++ {
				name := fmt.Sprintf("p%d/%s/trial%d", workers, tc.name, trial)
				vs := randomFrontier(tc.g.NumVertices(), 0.03*float64(trial+1), uint64(trial)*7+1)
				env := psam.NewEnv(psam.AppDirect)
				ref := runSorted(tc.g, env, vs, ops, variants[0].opt)
				for _, v := range variants[1:] {
					got := runSorted(tc.g, env, vs, ops, v.opt)
					if !equalU32(ref, got) {
						t.Fatalf("%s: %s disagrees with %s: %d vs %d targets",
							name, v.name, variants[0].name, len(got), len(ref))
					}
				}
			}
		}
	}
}

// TestDenseEarlyExitChargeMatchesCSR pins the pull scan's early exit on a
// block-decoded graph: a BFS-style round (Update clears d's Cond bit at
// the first frontier in-neighbor) over byte-64 decodes whole blocks but
// must stop at exactly the position where the CSR scan stops, and bill
// each representation's stored words up to that stop: ScanCost(d, 0, stop)
// summed over the scanned vertices, on top of the same offset reads.
func TestDenseEarlyExitChargeMatchesCSR(t *testing.T) {
	csr := gen.RMAT(11, 24, 3) // hubs span many 64-edge blocks
	cg := compress.Compress(csr, 64)
	vs := randomFrontier(csr.NumVertices(), 0.05, 1)
	run := func(g graph.Adj) ([]uint32, costmodel.Counts) {
		parent := make([]uint32, g.NumVertices())
		for i := range parent {
			parent[i] = ^uint32(0)
		}
		unset := frontier.AllSet(g.NumVertices())
		ops := Ops{
			Update: func(s, d uint32, _ int32) bool {
				parent[d] = s
				frontier.Clear(unset, d)
				return true
			},
			Cond: unset,
		}
		env := psam.NewEnv(psam.AppDirect)
		out := runSorted(g, env, vs, ops, Options{ForceDense: true})
		return out, env.Totals()
	}
	wantOut, want := run(csr)
	gotOut, got := run(cg)
	if !equalU32(gotOut, wantOut) {
		t.Fatalf("byte64 dense output has %d targets, CSR %d", len(gotOut), len(wantOut))
	}
	in := vs.Dense()
	var csrWords, cgWords int64
	for d := uint32(0); d < csr.NumVertices(); d++ {
		nghs := csr.Neighbors(d)
		stop := len(nghs)
		for j, s := range nghs {
			if frontier.Has(in, s) {
				stop = j + 1
				break
			}
		}
		csrWords += csr.ScanCost(d, 0, uint32(stop))
		cgWords += cg.ScanCost(d, 0, uint32(stop))
	}
	if want.NVRAMReads-csrWords != got.NVRAMReads-cgWords {
		t.Fatalf("offset reads differ: CSR %d, byte64 %d", want.NVRAMReads-csrWords, got.NVRAMReads-cgWords)
	}
	want.NVRAMReads, got.NVRAMReads = 0, 0
	if got != want {
		t.Fatalf("byte64 dense charged %+v, CSR %+v", got, want)
	}
	if full := int64(csr.NumEdges()); csrWords >= full {
		t.Fatalf("early exit never fired: %d NVRAM reads for %d edges", csrWords, full)
	}
}

// runSorted executes one EdgeMap and returns the sorted output target set.
func runSorted(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options) []uint32 {
	out := EdgeMap(g, env, vs, ops, opt)
	ids := append([]uint32(nil), out.Sparse()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
