package gfilter

import (
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"

	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/frontier"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// activeOf materializes the active adjacency of v.
func activeOf(f *Filter, v uint32) []uint32 {
	return f.ActiveList(0, v, nil, nil)
}

// intersectSorted is the reference two-pointer merge the probe
// intersection must agree with: the common elements of two sorted lists
// and one merge step per comparison.
func intersectSorted(a, b []uint32, stats *IntersectStats) []uint32 {
	var out []uint32
	for i, j := 0, 0; i < len(a) && j < len(b); stats.MergeSteps++ {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
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

func TestFilterAdjSlice(t *testing.T) {
	g := gen.RMAT(9, 16, 7)
	f := New(g, 64, nil)
	pred := func(u, ngh uint32) bool { return (u+ngh)%3 != 0 }
	f.FilterEdges(pred)
	var s graph.Scratch
	for v := uint32(0); v < g.NumVertices(); v++ {
		want := activeOf(f, v)
		if got, _ := f.Slice(v, 0, f.Degree(v), &s); !slices.Equal(got, want) {
			t.Fatalf("v=%d Slice %v vs ActiveList %v", v, got, want)
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
	ov, materialized := overlayOf(t, base)
	var s graph.Scratch

	pred := func(u, ngh uint32) bool { return (u+ngh)%3 != 0 }
	over, flat := New(ov, 64, nil), New(materialized, 64, nil)
	if over.FilterEdges(pred) != flat.FilterEdges(pred) {
		t.Fatalf("active edges %d over the overlay, %d materialized", over.ActiveEdges(), flat.ActiveEdges())
	}
	var stats, wantStats IntersectStats
	for v := uint32(0); v < n; v++ {
		want := activeOf(flat, v)
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
	if got := intersectSorted(a, b, &stats); !slices.Equal(got, []uint32{3, 7}) {
		t.Fatalf("reference intersection %v", got)
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

// overlayOf returns g under an overlay that deletes the first edge of and
// inserts one edge at every odd vertex — never touching vertex 0, which
// therefore reads as the base's own array — and the same graph
// materialized.
func overlayOf(t *testing.T, g *graph.Graph) (graph.Adj, *graph.Graph) {
	t.Helper()
	n := g.NumVertices()
	var ops []delta.Op
	for v := uint32(1); v < n; v += 2 {
		if nghs := g.Neighbors(v); len(nghs) > 0 && nghs[0] != 0 {
			ops = append(ops, delta.Op{U: v, V: nghs[0], Del: true})
		}
		if u := (v*7 + 3) % n; u != v && u != 0 {
			ops = append(ops, delta.Op{U: v, V: u})
		}
	}
	ov, err := delta.New(g).Apply(ops)
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
	return ov, graph.FromEdges(n, edges, graph.BuildOpts{})
}

// TestIntersectMarkedMatchesListThenMerge is the probe intersection's
// contract: on any filter state and any sorted list a marked in a bitmap,
// IntersectMarked returns what ActiveList followed by the plain
// two-pointer merge returns, and bills the same merge steps, decoded
// edges and PSAM graph reads (block by block: the Memory-Mode cache sees
// the same addresses).
func TestIntersectMarkedMatchesListThenMerge(t *testing.T) {
	// One worker: the Memory-Mode cache's state after a parallel pack
	// depends on how the workers' reads interleave.
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(1)
	g := gen.RMAT(9, 24, 41)
	n := g.NumVertices()
	ov, _ := overlayOf(t, g)
	type base struct {
		name string
		adj  graph.Adj
		fb   int
	}
	bases := []base{{"overlay/64", ov, 64}}
	for _, fb := range []int{64, 128, 256} {
		bases = append(bases,
			base{"csr/" + strconv.Itoa(fb), g, fb},
			base{"byte/" + strconv.Itoa(fb), compress.Compress(g, fb), fb})
	}
	for _, b := range bases {
		for _, mode := range []psam.Mode{psam.AppDirect, psam.MemoryMode} {
			newEnv := func() *psam.Env {
				env := psam.NewEnv(mode)
				if mode == psam.MemoryMode {
					env.WithCache(1 << 10)
				}
				return env
			}
			// Three filters kept in the same state: ref reads the list and
			// merges, marked probes a bitmap, and probe (unaccounted)
			// supplies the lists to intersect with.
			ref, marked, probe := New(b.adj, b.fb, newEnv()), New(b.adj, b.fb, newEnv()), New(b.adj, b.fb, nil)
			r := rand.New(rand.NewPCG(7, uint64(b.fb)))
			var refStats, markedStats IntersectStats
			var list, out []uint32
			mark := make([]uint64, (n+63)/64)
			for round := 0; round < 4; round++ {
				// Round 0 is the untouched filter; then random deletions;
				// round 2 also kills every edge into the lower half of the
				// id space, which leaves whole blocks (and vertices) dead.
				if round > 0 {
					salt := r.Uint64()
					pred := func(u, ngh uint32) bool {
						if round >= 2 && ngh < n/2 {
							return false
						}
						return (uint64(min(u, ngh))<<32|uint64(max(u, ngh)))*salt>>61 != 0
					}
					if left := probe.FilterEdges(pred); ref.FilterEdges(pred) != left || marked.FilterEdges(pred) != left {
						t.Fatalf("%s: the filters diverged", b.name)
					}
				}
				for v := uint32(0); v < n; v++ {
					active := activeOf(probe, v)
					// Lists ending before, inside, at the end of and after
					// v's, the empty list, a neighbour's list (the
					// triangle-count shape), and a dense run of ids.
					as := [][]uint32{nil, activeOf(probe, (v*31+7)%n)}
					if len(active) > 0 {
						first, mid, last := active[0], active[len(active)/2], active[len(active)-1]
						as = append(as,
							sortedSample(r, 0, first, 5),
							sortedSample(r, 0, mid+1, 9),
							sortedSample(r, mid, n, 9),
							sortedSample(r, last+1, n, 5),
							[]uint32{last},
							append(sortedSample(r, 0, last, 7), last),
							sortedSample(r, 0, n, 200))
					}
					for _, a := range as {
						list = ref.ActiveList(0, v, list, &refStats)
						want := intersectSorted(a, list, &refStats)
						for _, x := range a {
							mark[x>>6] |= 1 << (x & 63)
						}
						out = marked.IntersectMarked(0, v, a, mark, out[:0], &markedStats)
						clear(mark)
						if !slices.Equal(out, want) {
							t.Fatalf("%s round %d: v=%d a=%v: got %v want %v", b.name, round, v, a, out, want)
						}
						if markedStats != refStats {
							t.Fatalf("%s round %d: v=%d a=%v: stats %+v want %+v", b.name, round, v, a, markedStats, refStats)
						}
					}
				}
				if got, want := marked.env.Totals(), ref.env.Totals(); got != want {
					t.Fatalf("%s round %d (%v): PSAM counts %+v want %+v", b.name, round, mode, got, want)
				}
			}
		}
	}
}

// sortedSample returns up to k distinct ids of [lo, hi), ascending.
func sortedSample(r *rand.Rand, lo, hi uint32, k int) []uint32 {
	var out []uint32
	for i := 0; i < k && lo < hi; i++ {
		out = append(out, lo+r.Uint32N(hi-lo))
	}
	slices.Sort(out)
	return slices.Compact(out)
}
