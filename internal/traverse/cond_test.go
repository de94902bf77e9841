package traverse

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sage/internal/compress"
	"sage/internal/frontier"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// condGraphs have vertex counts that are not multiples of 64, so the last
// word of every bitmap has bits past n.
func condGraphs() map[string]graph.Adj {
	pl := gen.PowerLaw(1000, 8, 5) // 1000 % 64 = 40
	return map[string]graph.Adj{
		"grid":            gen.Grid2D(13, 11, false), // 143 % 64 = 15
		"powerlaw":        pl,
		"powerlaw-byte16": compress.Compress(pl, 16),
	}
}

// withWorkers runs fn at 1, 2 and 4 workers.
func withWorkers(t *testing.T, fn func(t *testing.T, workers int)) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, p := range []int{1, 2, 4} {
		parallel.SetWorkers(p)
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) { fn(t, p) })
	}
}

// TestCondNilNeverVisitsPastN runs pull rounds with a nil Cond from every
// vertex: Update must see each vertex that has an edge, none at or past n,
// and no scan may end early.
func TestCondNilNeverVisitsPastN(t *testing.T) {
	withWorkers(t, func(t *testing.T, _ int) {
		for name, g := range condGraphs() {
			n := g.NumVertices()
			seen := make([]atomic.Int32, frontier.Words(n)*64)
			ops := Ops{Update: func(_, d uint32, _ int32) bool {
				seen[d].Add(1)
				return d%3 == 0
			}}
			env := psam.NewEnv(psam.AppDirect)
			out := EdgeMap(g, env, frontier.All(n), ops, Options{ForceDense: true})
			for d := range seen {
				got, want := seen[d].Load(), int32(0)
				if d < int(n) {
					want = int32(g.Degree(uint32(d)))
				}
				if got != want {
					t.Fatalf("%s: vertex %d updated %d times, want %d (n=%d)", name, d, got, want, n)
				}
			}
			for d := uint32(0); d < n; d++ {
				if want := d%3 == 0 && g.Degree(d) > 0; out.Contains(d) != want {
					t.Fatalf("%s: vertex %d in output = %v, want %v", name, d, !want, want)
				}
			}
			if scanned := env.Totals().DRAMReads; scanned != int64(g.NumEdges()) {
				t.Fatalf("%s: scanned %d positions, want all %d edges", name, scanned, g.NumEdges())
			}
		}
	})
}

// TestCondPullVisitsExactlySetBits gives the pull scan an arbitrary Cond
// that no Update clears: Update must run for exactly the in-edges of the
// set bits, and the bitmap must come back unchanged.
func TestCondPullVisitsExactlySetBits(t *testing.T) {
	withWorkers(t, func(t *testing.T, _ int) {
		for name, g := range condGraphs() {
			n := g.NumVertices()
			cond := make([]uint64, frontier.Words(n))
			for d := uint32(0); d < n; d++ {
				if hashBit(d) {
					cond[d>>6] |= 1 << (d & 63)
				}
			}
			before := append([]uint64(nil), cond...)
			seen := make([]atomic.Int32, n)
			ops := Ops{
				Update: func(_, d uint32, _ int32) bool {
					seen[d].Add(1)
					return true
				},
				Cond: cond,
			}
			out := EdgeMap(g, nil, frontier.All(n), ops, Options{ForceDense: true})
			for d := uint32(0); d < n; d++ {
				set := cond[d>>6]&(1<<(d&63)) != 0
				want := int32(0)
				if set {
					want = int32(g.Degree(d))
				}
				if got := seen[d].Load(); got != want {
					t.Fatalf("%s: vertex %d (bit %v) updated %d times, want %d", name, d, set, got, want)
				}
				if out.Contains(d) != (want > 0) {
					t.Fatalf("%s: vertex %d in output = %v", name, d, out.Contains(d))
				}
			}
			for i := range cond {
				if cond[i] != before[i] {
					t.Fatalf("%s: Cond word %d changed: %#x -> %#x", name, i, before[i], cond[i])
				}
			}
		}
	})
}

// hashBit is a fixed pseudo-random vertex predicate.
func hashBit(d uint32) bool { return (uint64(d)*0x9E3779B97F4A7C15)>>61&1 == 1 }

// TestCondEarlyExitChargesPerEdgeCheck pins the pull scan's early exit
// against a serial model of the per-edge check it replaced: scan each
// live vertex's in-edges, call Update at every frontier member, and stop
// at the first position after which d's bit is clear. Update clears the
// bit only for some sources, so scans run on past frontier members too.
// The model's positions must equal the charged scan count.
func TestCondEarlyExitChargesPerEdgeCheck(t *testing.T) {
	withWorkers(t, func(t *testing.T, _ int) {
		for name, g := range condGraphs() {
			n := g.NumVertices()
			vs := randomFrontier(n, 0.2, 3)
			from := vs.Dense()
			stops := func(s uint32) bool { return s%3 == 0 }
			start := frontier.AllSet(n)
			for d := uint32(0); d < n; d += 5 {
				frontier.Clear(start, d)
			}

			var wantScanned int64
			var wantOut []uint32
			flat := graph.NewFlat(g)
			var sc graph.Scratch
			for d := uint32(0); d < n; d++ {
				if start[d>>6]&(1<<(d&63)) == 0 {
					continue
				}
				nghs, _ := flat.Slice(d, 0, g.Degree(d), &sc)
				k, hit := int64(len(nghs)), false
				for j, s := range nghs {
					if from[s>>6]&(1<<(s&63)) != 0 {
						hit = true
						if stops(s) {
							k = int64(j) + 1
							break
						}
					}
				}
				wantScanned += k
				if hit {
					wantOut = append(wantOut, d)
				}
			}

			cond := append([]uint64(nil), start...)
			ops := Ops{
				Update: func(s, d uint32, _ int32) bool {
					if stops(s) {
						frontier.Clear(cond, d)
					}
					return true
				},
				Cond: cond,
			}
			env := psam.NewEnv(psam.AppDirect)
			gotOut := runSorted(g, env, vs, ops, Options{ForceDense: true})
			if !equalU32(gotOut, wantOut) {
				t.Fatalf("%s: %d targets, model %d", name, len(gotOut), len(wantOut))
			}
			if got := env.Totals().DRAMReads; got != wantScanned {
				t.Fatalf("%s: charged %d scan positions, per-edge model %d", name, got, wantScanned)
			}
		}
	})
}

// TestClaimOncePerVertex races eight claims per vertex across four
// workers. The claims run inside a parallel.For closure that indexes a
// slice with the loop index — the shape in which an atomic.AndUint64
// claim was miscompiled — and exactly one claim per vertex must win.
func TestClaimOncePerVertex(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(4)
	const n = 10_000 // 10000 % 64 = 16
	live := frontier.AllSet(n)
	cand := make([]uint32, 8*n)
	for i := range cand {
		cand[i] = uint32(i*7919) % n
	}
	won := make([]bool, len(cand))
	parallel.For(len(cand), 16, func(i int) {
		won[i] = frontier.Claim(live, cand[i])
	})
	wins := make([]int, n)
	for i, w := range won {
		if w {
			wins[cand[i]]++
		}
	}
	for v, c := range wins {
		if c != 1 {
			t.Fatalf("vertex %d claimed %d times, want once", v, c)
		}
	}
	for i, w := range live {
		if w != 0 {
			t.Fatalf("word %d still has bits %#x after every vertex was claimed", i, w)
		}
	}
}
