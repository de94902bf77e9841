package gfilter

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/frontier"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// activeOf materializes the active adjacency of v via IterActive.
func activeOf(f *Filter, v uint32) []uint32 {
	var out []uint32
	f.IterActive(0, v, func(ngh uint32) bool {
		out = append(out, ngh)
		return true
	})
	return out
}

// refFilter maintains a per-vertex map of surviving neighbors as oracle.
type refFilter struct {
	adj []map[uint32]bool
}

func newRef(g *graph.Graph) *refFilter {
	r := &refFilter{adj: make([]map[uint32]bool, g.NumVertices())}
	for v := uint32(0); v < g.NumVertices(); v++ {
		r.adj[v] = map[uint32]bool{}
		for _, u := range g.Neighbors(v) {
			r.adj[v][u] = true
		}
	}
	return r
}

func (r *refFilter) pack(v uint32, pred func(u, ngh uint32) bool) {
	for u := range r.adj[v] {
		if !pred(v, u) {
			delete(r.adj[v], u)
		}
	}
}

func (r *refFilter) check(t *testing.T, f *Filter, where string) {
	t.Helper()
	var total int64
	for v := uint32(0); v < f.NumVertices(); v++ {
		got := activeOf(f, v)
		if len(got) != len(r.adj[v]) {
			t.Fatalf("%s: vertex %d degree %d want %d", where, v, len(got), len(r.adj[v]))
		}
		if uint32(len(got)) != f.Degree(v) {
			t.Fatalf("%s: vertex %d Degree() %d but iterated %d", where, v, f.Degree(v), len(got))
		}
		for i, u := range got {
			if !r.adj[v][u] {
				t.Fatalf("%s: vertex %d has phantom neighbor %d", where, v, u)
			}
			if i > 0 && got[i-1] >= u {
				t.Fatalf("%s: vertex %d active list not sorted", where, v)
			}
		}
		total += int64(len(got))
	}
	if total != f.ActiveEdges() {
		t.Fatalf("%s: ActiveEdges %d but iterated %d", where, f.ActiveEdges(), total)
	}
}

func TestFilterInitialAllActive(t *testing.T) {
	for _, fb := range []int{64, 128, 256} {
		g := gen.RMAT(9, 8, 1)
		f := New(g, fb, nil)
		newRef(g).check(t, f, "init")
		if f.ActiveEdges() != int64(g.NumEdges()) {
			t.Fatalf("live=%d m=%d", f.ActiveEdges(), g.NumEdges())
		}
	}
}

func TestFilterRandomDeletionsVsReference(t *testing.T) {
	g := gen.RMAT(9, 12, 5)
	for _, fb := range []int{64, 128} {
		f := New(g, fb, nil)
		ref := newRef(g)
		r := rand.New(rand.NewPCG(11, uint64(fb)))
		for round := 0; round < 5; round++ {
			// Random symmetric predicate: drop edges whose hash is small.
			cut := uint64(1) << (62 - round*2)
			pred := func(u, ngh uint32) bool {
				lo, hi := min(u, ngh), max(u, ngh)
				h := (uint64(lo)<<32 | uint64(hi)) * 0x9e3779b97f4a7c15
				return h > cut
			}
			// Pack a random subset of vertices (asymmetrically) — both
			// sides eventually pack because the predicate is symmetric.
			var ids []uint32
			for v := uint32(0); v < g.NumVertices(); v++ {
				if r.IntN(2) == 0 {
					ids = append(ids, v)
				}
			}
			f.EdgeMapPack(frontier.FromSparse(g.NumVertices(), ids), pred)
			for _, v := range ids {
				ref.pack(v, pred)
			}
			ref.check(t, f, "round")
		}
	}
}

func TestFilterEdgesAll(t *testing.T) {
	g := gen.Grid2D(20, 20, false)
	f := New(g, 64, nil)
	ref := newRef(g)
	pred := func(u, ngh uint32) bool { return u < ngh } // orient upward
	remaining := f.FilterEdges(pred)
	for v := uint32(0); v < g.NumVertices(); v++ {
		ref.pack(v, pred)
	}
	ref.check(t, f, "orient")
	if remaining != int64(g.NumEdges())/2 {
		t.Fatalf("oriented remaining %d want %d", remaining, g.NumEdges()/2)
	}
}

func TestFilterToEmpty(t *testing.T) {
	g := gen.RMAT(8, 8, 2)
	f := New(g, 64, nil)
	if f.FilterEdges(func(_, _ uint32) bool { return false }) != 0 {
		t.Fatal("not empty after dropping all")
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if f.Degree(v) != 0 {
			t.Fatalf("vertex %d still has degree %d", v, f.Degree(v))
		}
	}
}

func TestFilterDirtyBits(t *testing.T) {
	g := gen.Star(10)
	f := New(g, 64, nil)
	// Pack only the center, dropping the edge to leaf 3.
	f.PackVertex(0, 0, func(_, ngh uint32) bool { return ngh != 3 })
	if !f.Dirty().Get(3) {
		t.Fatal("leaf 3 not marked dirty")
	}
	if f.Dirty().Get(2) {
		t.Fatal("leaf 2 spuriously dirty")
	}
}

func TestFilterAdjSlice(t *testing.T) {
	g := gen.RMAT(9, 16, 7)
	f := New(g, 64, nil)
	pred := func(u, ngh uint32) bool { return (u+ngh)%3 != 0 }
	f.FilterEdges(pred)
	var s graph.Scratch
	for v := uint32(0); v < g.NumVertices(); v++ {
		want := activeOf(f, v)
		if got, _ := f.Slice(v, 0, f.Degree(v), &s); !slices.Equal(got, want) {
			t.Fatalf("v=%d Slice %v vs IterActive %v", v, got, want)
		}
		// Sub-ranges too.
		if len(want) >= 4 {
			lo, hi := uint32(1), uint32(len(want)-1)
			if sub, _ := f.Slice(v, lo, hi, &s); !slices.Equal(sub, want[lo:hi]) {
				t.Fatalf("v=%d subrange %v want %v", v, sub, want[lo:hi])
			}
		}
	}
}

func TestFilterOverCompressed(t *testing.T) {
	base := gen.RMAT(9, 12, 3)
	cg := compress.Compress(base, 64)
	f := New(cg, 0, nil) // block size must lock to compression block size
	if f.FB() != 64 {
		t.Fatalf("FB=%d", f.FB())
	}
	ref := newRef(base)
	pred := func(u, ngh uint32) bool { return (u^ngh)%5 != 0 }
	f.FilterEdges(pred)
	for v := uint32(0); v < base.NumVertices(); v++ {
		ref.pack(v, pred)
	}
	ref.check(t, f, "compressed")
}

// TestFilterOverOverlay is tc-on-a-snapshot's access pattern: the base
// answers "aliased or decoded?" per vertex — vertex 0 has no delta and
// reads as the CSR's own array, its odd neighbours merge inserts and
// deletes — and the filter must read both kinds exactly as it reads the
// materialized graph, through every decode entry point.
func TestFilterOverOverlay(t *testing.T) {
	base := gen.RMAT(9, 12, 3)
	n := base.NumVertices()
	var ops []delta.Op
	for v := uint32(1); v < n; v += 2 {
		if nghs := base.Neighbors(v); len(nghs) > 0 && nghs[0] != 0 {
			ops = append(ops, delta.Op{U: v, V: nghs[0], Del: true})
		}
		if u := (v*7 + 3) % n; u != v && u != 0 {
			ops = append(ops, delta.Op{U: v, V: u})
		}
	}
	ov, err := delta.New(base).Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	var s graph.Scratch
	for v := uint32(0); v < n; v++ {
		nghs, _ := ov.Slice(v, 0, ov.Degree(v), &s)
		for _, u := range nghs {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	materialized := graph.FromEdges(n, edges, graph.BuildOpts{})

	pred := func(u, ngh uint32) bool { return (u+ngh)%3 != 0 }
	over, flat := New(ov, 64, nil), New(materialized, 64, nil)
	if over.FilterEdges(pred) != flat.FilterEdges(pred) {
		t.Fatalf("active edges %d over the overlay, %d materialized", over.ActiveEdges(), flat.ActiveEdges())
	}
	var stats, wantStats IntersectStats
	for v := uint32(0); v < n; v++ {
		want := activeOf(flat, v)
		if got := activeOf(over, v); !slices.Equal(got, want) {
			t.Fatalf("IterActive(%d) = %v, want %v", v, got, want)
		}
		if got := over.ActiveList(0, v, nil, &stats); !slices.Equal(got, want) {
			t.Fatalf("ActiveList(%d) = %v, want %v", v, got, want)
		}
		flat.ActiveList(0, v, nil, &wantStats)
		if got, _ := over.Slice(v, 0, over.Degree(v), &s); !slices.Equal(got, want) {
			t.Fatalf("Slice(%d) = %v, want %v", v, got, want)
		}
	}
	if stats != wantStats {
		t.Fatalf("decode work %+v over the overlay, %+v materialized", stats, wantStats)
	}
}

func TestFilterBlockSizeMismatchPanics(t *testing.T) {
	base := gen.RMAT(6, 8, 3)
	cg := compress.Compress(base, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on FB != compression block size")
		}
	}()
	New(cg, 128, nil)
}

func TestActiveListAndIntersect(t *testing.T) {
	g := gen.RMAT(9, 16, 13)
	f := New(g, 64, nil)
	rankLess := func(a, b uint32) bool {
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da < db
		}
		return a < b
	}
	f.FilterEdges(func(u, v uint32) bool { return rankLess(u, v) })
	var stats IntersectStats
	var buf []uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		buf = f.ActiveList(0, v, buf, &stats)
		if uint32(len(buf)) != f.Degree(v) {
			t.Fatalf("ActiveList len %d != degree %d", len(buf), f.Degree(v))
		}
		if !sort.SliceIsSorted(buf, func(i, j int) bool { return buf[i] < buf[j] }) {
			t.Fatalf("ActiveList not sorted at %d", v)
		}
	}
	if stats.DecodedEdges == 0 {
		t.Fatal("no decode work recorded")
	}
	a := []uint32{1, 3, 5, 7}
	b := []uint32{2, 3, 7, 9}
	if IntersectSorted(a, b, &stats) != 2 {
		t.Fatal("intersect count")
	}
}

func TestFilterSpaceIsRelaxedPSAM(t *testing.T) {
	g := gen.RMAT(12, 32, 17)
	f := New(g, 64, nil)
	n := int64(g.NumVertices())
	m := int64(g.NumEdges())
	// §4.2.3: O(n + m/64)-ish words; assert well under the raw edges.
	if f.SizeWords() >= m/2 {
		t.Fatalf("filter %d words vs m=%d", f.SizeWords(), m)
	}
	if f.SizeWords() < n {
		t.Fatalf("filter suspiciously small: %d words", f.SizeWords())
	}
	// Paper §4.2.3: 4.6-8.1x smaller than the uncompressed graph.
	ratio := float64(g.SizeWords()) / float64(f.SizeWords())
	if ratio < 2 {
		t.Fatalf("filter only %.1fx smaller than graph", ratio)
	}
}

func TestPackVertexParallelDisjoint(t *testing.T) {
	g := gen.RMAT(10, 16, 23)
	f := New(g, 64, nil)
	ref := newRef(g)
	pred := func(u, ngh uint32) bool { return ngh%2 == 0 }
	parallel.ForWorker(int(g.NumVertices()), 1, func(w, i int) {
		f.PackVertex(w, uint32(i), pred)
	})
	for v := uint32(0); v < g.NumVertices(); v++ {
		ref.pack(v, pred)
	}
	ref.check(t, f, "parallel pack")
}
