package delta

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sage/internal/compress"
	"sage/internal/frontier"
	"sage/internal/graph"
)

// materialize builds the model's adjacency as a static CSR graph: the
// reference every overlay read is compared with.
func (m *model) materialize() *graph.Graph {
	var plain []graph.Edge
	var weighted []graph.WEdge
	for v, nghs := range m.adj {
		for u, w := range nghs {
			plain = append(plain, graph.Edge{U: v, V: u})
			weighted = append(weighted, graph.WEdge{U: v, V: u, W: w})
		}
	}
	if m.weighted {
		return graph.FromWeightedEdges(m.n, weighted, graph.BuildOpts{})
	}
	return graph.FromEdges(m.n, plain, graph.BuildOpts{})
}

// clone deep-copies the model, so an elder version can be kept as the
// reference of an elder overlay.
func (m *model) clone() *model {
	c := &model{n: m.n, weighted: m.weighted, adj: map[uint32]map[uint32]int32{}}
	for v, nghs := range m.adj {
		for u, w := range nghs {
			c.set(v, u, w)
		}
	}
	return c
}

// maskBase is a random simple graph over n vertices with one hub of
// degree above 64, so byte-64 compression gives it several blocks.
func maskBase(rng *rand.Rand, n uint32, weighted bool) *graph.Graph {
	seen := map[[2]uint32]bool{}
	var edges []graph.WEdge
	add := func(u, v uint32) {
		if u == v || seen[[2]uint32{min(u, v), max(u, v)}] {
			return
		}
		seen[[2]uint32{min(u, v), max(u, v)}] = true
		edges = append(edges, graph.WEdge{U: u, V: v, W: int32(1 + rng.Intn(9))})
	}
	for v := uint32(1); v < n; v += 2 {
		add(0, v)
	}
	for i := 0; i < int(3*n); i++ {
		add(uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n))))
	}
	if weighted {
		return graph.FromWeightedEdges(n, edges, graph.BuildOpts{Symmetrize: true})
	}
	plain := make([]graph.Edge, len(edges))
	for i, e := range edges {
		plain[i] = graph.Edge{U: e.U, V: e.V}
	}
	return graph.FromEdges(n, plain, graph.BuildOpts{Symmetrize: true})
}

// checkMaskedReads compares every read of o — through graph.Flat
// (Slice and Full), and Slice, Degree and ScanCost on the overlay
// itself — with the materialized reference, for every vertex over a
// spread of [lo, hi) ranges. base is the overlay's base and ref the
// model of o's view.
func checkMaskedReads(t *testing.T, o *Overlay, base graph.Adj, ref *model) {
	t.Helper()
	want := ref.materialize()
	flat := graph.NewFlat(o)
	var s, fs, bs graph.Scratch
	for v := uint32(0); v < o.NumVertices(); v++ {
		deg := want.Degree(v)
		wantN, wantW := want.Neighbors(v), want.NeighborWeights(v)
		if got := o.Degree(v); got != deg {
			t.Fatalf("Degree(%d) = %d want %d", v, got, deg)
		}
		same := func(what string, lo, hi uint32, nghs []uint32, ws []int32) {
			t.Helper()
			if !slices.Equal(nghs, wantN[lo:hi]) {
				t.Fatalf("%s(%d, [%d,%d)) = %v want %v", what, v, lo, hi, nghs, wantN[lo:hi])
			}
			if wantW == nil {
				if ws != nil {
					t.Fatalf("%s(%d) returned weights on an unweighted view", what, v)
				}
			} else if !slices.Equal(ws, wantW[lo:hi]) {
				t.Fatalf("%s(%d, [%d,%d)) weights = %v want %v", what, v, lo, hi, ws, wantW[lo:hi])
			}
		}
		nghs, ws := flat.Full(v, &fs)
		same("Flat.Full", 0, deg, nghs, ws)
		// A vertex the model leaves as the base has it is charged the
		// base's own scan; a changed one its full base list.
		baseN, baseW := base.Slice(v, 0, math.MaxUint32, &bs)
		changed := !slices.Equal(wantN, baseN) || !slices.Equal(wantW, baseW)
		for _, r := range [][2]uint32{{0, deg}, {0, deg + 9}, {deg / 3, deg}, {1, deg / 2}, {deg / 2, deg / 2}, {deg, deg + 1}} {
			lo, hi := r[0], r[1]
			clampedHi := min(hi, deg)
			clampedLo := min(lo, clampedHi)
			nghs, ws := flat.Slice(v, lo, hi, &fs)
			same("Flat.Slice", clampedLo, clampedHi, nghs, ws)
			nghs, ws = o.Slice(v, lo, hi, &s)
			same("Slice", clampedLo, clampedHi, nghs, ws)
			if hi > deg {
				continue // ScanCost takes positions within the degree
			}
			wantCost := base.ScanCost(v, lo, hi)
			if changed {
				wantCost = 0
				if hi > lo {
					wantCost = base.ScanCost(v, 0, base.Degree(v))
				}
			}
			if got := o.ScanCost(v, lo, hi); got != wantCost {
				t.Fatalf("ScanCost(%d, %d, %d) = %d want %d", v, lo, hi, got, wantCost)
			}
		}
	}
}

// TestMaskedReadsMatchMerge pins the touched-vertex mask: over CSR and
// byte-64 bases, weighted and not, batches of inserts, deletes,
// re-weights and a cancelled delta leave every read — the clear-bit fast
// path, the set-bit merge, and a set bit with no delta behind it — equal
// to the materialized graph, for the newest overlay and for every elder
// one after later batches set more bits.
func TestMaskedReadsMatchMerge(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for _, rep := range []string{"csr", "byte64"} {
			name := rep + "/unweighted"
			if weighted {
				name = rep + "/weighted"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(0x5a9e))
				const n = 160
				g := maskBase(rng, n, weighted)
				var base graph.Adj = g
				if rep == "byte64" {
					base = compress.Compress(g, 64)
				}
				m := newModel(g)
				o := New(base)
				if _, mask := o.CSRBase(); mask != nil {
					t.Fatal("the empty overlay allocated a mask")
				}
				type version struct {
					o   *Overlay
					ref *model
				}
				versions := []version{{o, m.clone()}}
				w := func() int32 {
					if weighted {
						return int32(rng.Intn(5)) // 0 selects the default
					}
					return 0
				}
				// Random ops stay below n-10; a non-edge among the next five
				// vertices and one among the last five carry the
				// cancellations.
				nonEdge := func(lo uint32) [2]uint32 {
					for u := lo; u < lo+5; u++ {
						for v := u + 1; v < lo+5; v++ {
							if !g.HasEdge(u, v) {
								return [2]uint32{u, v}
							}
						}
					}
					t.Fatalf("no non-edge among %d..%d", lo, lo+4)
					return [2]uint32{}
				}
				a, c := nonEdge(n-10), nonEdge(n-5)
				reweight := int32(0) // a plain re-insert when unweighted
				if weighted {
					reweight = 8
				}
				hubNgh := g.Neighbors(0)
				batches := [][]Op{
					// The hub loses and gains edges; a delta cancelled
					// within the batch sets no bit.
					{{U: 0, V: hubNgh[3], Del: true}, {U: 0, V: 2}, {U: a[0], V: a[1]}, {U: a[0], V: a[1], Del: true}},
					// Re-weight a hub edge.
					{{U: 0, V: hubNgh[10], W: reweight}, {U: c[0], V: c[1], W: w()}},
				}
				for b := 0; b < 4; b++ {
					var batch []Op
					for i := 0; i < 12; i++ {
						u, v := uint32(rng.Intn(n-10)), uint32(rng.Intn(n-10))
						if u != v {
							batch = append(batch, Op{U: u, V: v, W: w(), Del: rng.Intn(3) == 0})
						}
					}
					batches = append(batches, batch)
				}
				// Cancel the second batch's insert c: its bits stay set.
				batches = append(batches, []Op{{U: c[0], V: c[1], Del: true}})
				for _, batch := range batches {
					next, err := o.Apply(batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, op := range batch {
						m.apply(op)
					}
					o = next
					versions = append(versions, version{o, m.clone()})
					checkMaskedReads(t, o, base, m)
				}
				// Every version shares the one mask, and it covers
				// vertices with no delta: the cancelled ones, and in
				// elder versions the later versions' vertices.
				csr, mask := o.CSRBase()
				if (csr != nil) != (rep == "csr") {
					t.Fatalf("CSRBase on a %s base returned %v", rep, csr)
				}
				for _, v := range c {
					if _, ok := o.verts[v]; ok || !frontier.Has(mask, v) {
						t.Fatalf("cancelled vertex %d: delta %v, bit %v", v, ok, frontier.Has(mask, v))
					}
				}
				for _, v := range a {
					if frontier.Has(mask, v) {
						t.Fatalf("vertex %d, cancelled within its batch, has its bit set", v)
					}
				}
				elder := versions[1].o
				if &elder.mask[0] != &mask[0] {
					t.Fatal("an elder overlay holds a mask of its own")
				}
				stale := 0
				for v := range o.verts {
					if _, ok := elder.verts[v]; !ok && frontier.Has(elder.mask, v) {
						stale++
					}
				}
				if stale == 0 {
					t.Fatal("no later-batch bit is set over the elder overlay's untouched vertices")
				}
				for _, ver := range versions {
					checkMaskedReads(t, ver.o, base, ver.ref)
				}
			})
		}
	}
}

// TestElderSnapshotReadsDuringApply applies a chain of batches in one
// goroutine — each setting mask bits with atomic OR — while readers
// iterate an elder snapshot through graph.Flat and Degree; under -race
// it pins that mask reads and writes are synchronized, and every reader
// must see the elder view exactly.
func TestElderSnapshotReadsDuringApply(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe1de))
	const n = 512
	g := maskBase(rng, n, true)
	o, err := New(g).Apply([]Op{{U: 1, V: 2, W: 4}, {U: 0, V: 7, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	elder := o
	want := make([][]uint32, n)
	var s graph.Scratch
	for v := uint32(0); v < n; v++ {
		nghs, _ := elder.Slice(v, 0, elder.Degree(v), &s)
		want[v] = slices.Clone(nghs)
	}
	const readers = 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s graph.Scratch
			for {
				flat := graph.NewFlat(elder)
				for v := uint32(0); v < n; v++ {
					nghs, _ := flat.Full(v, &s)
					if int(elder.Degree(v)) != len(want[v]) || !slices.Equal(nghs, want[v]) {
						errs <- "elder snapshot changed under a concurrent Apply"
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wrng := rand.New(rand.NewSource(7))
	for b := 0; b < 60; b++ {
		var batch []Op
		for i := 0; i < 8; i++ {
			u, v := uint32(wrng.Intn(n)), uint32(wrng.Intn(n))
			if u != v {
				batch = append(batch, Op{U: u, V: v, W: int32(1 + wrng.Intn(5)), Del: wrng.Intn(4) == 0})
			}
		}
		if o, err = o.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
