package delta

import (
	"math/rand"
	"slices"
	"testing"

	"sage/internal/graph"
)

// model is the obviously-correct reference: a map-of-maps adjacency the
// tests mutate alongside the overlay.
type model struct {
	n        uint32
	weighted bool
	adj      map[uint32]map[uint32]int32
}

func newModel(g *graph.Graph) *model {
	m := &model{n: g.NumVertices(), weighted: g.Weighted(), adj: map[uint32]map[uint32]int32{}}
	for v := uint32(0); v < m.n; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			m.set(v, u, w)
		}
	}
	return m
}

func (m *model) set(u, v uint32, w int32) {
	if m.adj[u] == nil {
		m.adj[u] = map[uint32]int32{}
	}
	m.adj[u][v] = w
}

func (m *model) apply(op Op) {
	w := op.W
	if m.weighted && !op.Del && w == 0 {
		w = 1
	}
	if !m.weighted {
		w = 1
	}
	if op.Del {
		delete(m.adj[op.U], op.V)
		delete(m.adj[op.V], op.U)
		return
	}
	m.set(op.U, op.V, w)
	m.set(op.V, op.U, w)
}

func (m *model) arcs() uint64 {
	var total uint64
	for _, nghs := range m.adj {
		total += uint64(len(nghs))
	}
	return total
}

// deltaArcs counts the arcs where the model differs from the base's
// model: arcs the base lacks or holds at another weight (added), and base
// arcs the model lacks or holds at another weight (deleted). A re-weight
// counts in both, as in Overlay.DeltaArcs.
func (m *model) deltaArcs(base *model) (added, deleted uint64) {
	for v, nghs := range m.adj {
		for u, w := range nghs {
			if bw, ok := base.adj[v][u]; !ok || bw != w {
				added++
			}
		}
	}
	for v, nghs := range base.adj {
		for u, bw := range nghs {
			if w, ok := m.adj[v][u]; !ok || w != bw {
				deleted++
			}
		}
	}
	return added, deleted
}

// checkEquiv asserts the overlay's merged view equals the model through
// every accessor: Degree, NumEdges, and Slice over the whole list (hi
// past the degree must clamp) and over a partial range.
func checkEquiv(t *testing.T, o *Overlay, m *model) {
	t.Helper()
	if o.NumEdges() != m.arcs() {
		t.Fatalf("NumEdges=%d want %d", o.NumEdges(), m.arcs())
	}
	var s graph.Scratch
	for v := uint32(0); v < m.n; v++ {
		var want []uint32
		var wantW []int32
		for u := uint32(0); u < m.n; u++ {
			if w, ok := m.adj[v][u]; ok {
				want = append(want, u)
				wantW = append(wantW, w)
			}
		}
		deg := uint32(len(want))
		if got := o.Degree(v); got != deg {
			t.Fatalf("Degree(%d)=%d want %d", v, got, deg)
		}
		got, gotW := o.Slice(v, 0, deg+7, &s)
		if !slices.Equal(got, want) {
			t.Fatalf("Slice(%d) = %v want %v", v, got, want)
		}
		if o.Weighted() {
			if !slices.Equal(gotW, wantW) {
				t.Fatalf("Slice(%d) weights = %v want %v", v, gotW, wantW)
			}
		} else if gotW != nil {
			t.Fatalf("Slice(%d) on unweighted base returned weights", v)
		}
		if deg >= 2 {
			lo, hi := deg/3, deg-1
			part, partW := o.Slice(v, lo, hi, &s)
			if !slices.Equal(part, want[lo:hi]) {
				t.Fatalf("Slice(%d,%d,%d) = %v want %v", v, lo, hi, part, want[lo:hi])
			}
			if o.Weighted() && !slices.Equal(partW, wantW[lo:hi]) {
				t.Fatalf("Slice(%d,%d,%d) weights = %v want %v", v, lo, hi, partW, wantW[lo:hi])
			}
		}
	}
}

func buildBase(t *testing.T, n uint32, edges []graph.Edge) *graph.Graph {
	t.Helper()
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

func TestEmptyOverlayIsIdentity(t *testing.T) {
	g := buildBase(t, 6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}})
	o := New(g)
	if !o.Empty() || o.Words() != 0 {
		t.Fatalf("fresh overlay not empty (words=%d)", o.Words())
	}
	checkEquiv(t, o, newModel(g))
	if o.ScanCost(1, 0, 2) != g.ScanCost(1, 0, 2) {
		t.Fatal("identity overlay changes scan cost")
	}
}

func TestApplyInsertDelete(t *testing.T) {
	g := buildBase(t, 8, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
	m := newModel(g)
	o := New(g)
	batch := []Op{
		{U: 0, V: 5},            // brand-new edge
		{U: 1, V: 2, Del: true}, // delete a base edge
		{U: 6, V: 7},            // edge between isolated vertices
		{U: 0, V: 1, Del: true},
		{U: 0, V: 1}, // delete then re-insert: net no-op
	}
	o2, err := o.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range batch {
		m.apply(op)
	}
	checkEquiv(t, o2, m)
	// The original overlay (and the base) are untouched.
	checkEquiv(t, o, newModel(g))
	if o2.Words() <= 0 {
		t.Fatal("non-empty overlay reports zero DRAM words")
	}
	add, del := o2.DeltaArcs()
	if add != 4 || del != 2 { // {0,5} and {6,7} inserted; {1,2} deleted
		t.Fatalf("DeltaArcs = (%d,%d), want (4,2)", add, del)
	}
}

func TestApplyIdempotence(t *testing.T) {
	g := buildBase(t, 4, []graph.Edge{{U: 0, V: 1}})
	o := New(g)
	o2, err := o.Apply([]Op{{U: 0, V: 1}, {U: 2, V: 3}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if o2.NumEdges() != g.NumEdges()+2 {
		t.Fatalf("m=%d want %d", o2.NumEdges(), g.NumEdges()+2)
	}
	o3, err := o2.Apply([]Op{{U: 0, V: 3, Del: true}}) // absent: no-op
	if err != nil {
		t.Fatal(err)
	}
	if o3.NumEdges() != o2.NumEdges() {
		t.Fatal("deleting an absent edge changed m")
	}
}

func TestApplyCancellationDropsDelta(t *testing.T) {
	g := buildBase(t, 4, []graph.Edge{{U: 0, V: 1}})
	o, err := New(g).Apply([]Op{{U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := o.Apply([]Op{{U: 2, V: 3, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Empty() || o2.Words() != 0 {
		t.Fatalf("cancelled delta retained: empty=%v words=%d", o2.Empty(), o2.Words())
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	g := buildBase(t, 4, []graph.Edge{{U: 0, V: 1}})
	o := New(g)
	for _, bad := range [][]Op{
		{{U: 0, V: 9}},               // out of range
		{{U: 2, V: 2}},               // self-loop
		{{U: 0, V: 2, W: 7}},         // weight on unweighted base
		{{U: 0, V: 2}, {U: 5, V: 6}}, // second op invalid: whole batch rejected
	} {
		if _, err := o.Apply(bad); err == nil {
			t.Fatalf("batch %v accepted", bad)
		}
	}
	if !o.Empty() {
		t.Fatal("rejected batch mutated the overlay")
	}
}

func TestWeightedReweight(t *testing.T) {
	g := graph.FromWeightedEdges(4, []graph.WEdge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 9}},
		graph.BuildOpts{Symmetrize: true})
	m := newModel(g)
	o := New(g)
	batch := []Op{
		{U: 0, V: 1, W: 7}, // re-weight an existing edge
		{U: 0, V: 3, W: 2}, // weighted insert
		{U: 2, V: 3},       // insert at the default weight 1
		{U: 1, V: 2, W: 9}, // same weight: no-op
	}
	o2, err := o.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range batch {
		m.apply(op)
	}
	checkEquiv(t, o2, m)
	if o2.NumEdges() != g.NumEdges()+4 {
		t.Fatalf("re-weighting changed the edge count: m=%d", o2.NumEdges())
	}
	// Deleting a re-weighted edge removes it entirely.
	o3, err := o2.Apply([]Op{{U: 0, V: 1, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	m.apply(Op{U: 0, V: 1, Del: true})
	checkEquiv(t, o3, m)
}

// TestRandomizedAgainstModel drives random batches against the reference
// model over both unweighted and weighted bases, checking full merged-view
// equivalence and the delta's arc counts after every batch, and that
// elder snapshots stay intact.
func TestRandomizedAgainstModel(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		name := "unweighted"
		if weighted {
			name = "weighted"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xdeadbee))
			const n = 40
			var edges []graph.WEdge
			for i := 0; i < 80; i++ {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				if u != v {
					edges = append(edges, graph.WEdge{U: u, V: v, W: int32(1 + rng.Intn(9))})
				}
			}
			var g *graph.Graph
			if weighted {
				g = graph.FromWeightedEdges(n, edges, graph.BuildOpts{Symmetrize: true})
			} else {
				plain := make([]graph.Edge, len(edges))
				for i, e := range edges {
					plain[i] = graph.Edge{U: e.U, V: e.V}
				}
				g = graph.FromEdges(n, plain, graph.BuildOpts{Symmetrize: true})
			}
			m, baseModel := newModel(g), newModel(g)
			o := New(g)
			prev := o
			prevModelArcs := m.arcs()
			for round := 0; round < 12; round++ {
				var batch []Op
				for i := 0; i < 25; i++ {
					u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					if u == v {
						continue
					}
					op := Op{U: u, V: v, Del: rng.Intn(3) == 0}
					if weighted && !op.Del {
						op.W = int32(rng.Intn(5)) // 0 selects the default
					}
					batch = append(batch, op)
				}
				next, err := o.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range batch {
					m.apply(op)
				}
				checkEquiv(t, next, m)
				add, del := next.DeltaArcs()
				if wantAdd, wantDel := m.deltaArcs(baseModel); add != wantAdd || del != wantDel {
					t.Fatalf("round %d: DeltaArcs = (%d,%d), want (%d,%d)", round, add, del, wantAdd, wantDel)
				}
				if prev.NumEdges() != prevModelArcs {
					t.Fatal("elder snapshot mutated by a later batch")
				}
				prev, prevModelArcs = next, m.arcs()
				o = next
			}
		})
	}
}

// TestWeightedInsertAfterDeleteOnlyDelta pins the clone regression: a
// vertex whose delta holds only deletions (empty-but-weighted adds) must
// keep its weighted discriminator through the copy-on-write of a later
// batch — the follow-up insert must record its weight, and a subsequent
// re-weight must not misalign adds/addW.
func TestWeightedInsertAfterDeleteOnlyDelta(t *testing.T) {
	g := graph.FromWeightedEdges(5, []graph.WEdge{{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 6}},
		graph.BuildOpts{Symmetrize: true})
	m := newModel(g)

	o1, err := New(g).Apply([]Op{{U: 0, V: 1, Del: true}}) // delete-only delta at 0
	if err != nil {
		t.Fatal(err)
	}
	m.apply(Op{U: 0, V: 1, Del: true})

	o2, err := o1.Apply([]Op{{U: 0, V: 3, W: 7}}) // weighted insert after the clone
	if err != nil {
		t.Fatal(err)
	}
	m.apply(Op{U: 0, V: 3, W: 7})
	checkEquiv(t, o2, m)

	o3, err := o2.Apply([]Op{{U: 0, V: 2, W: 9}}) // re-weight a base edge of 0
	if err != nil {
		t.Fatal(err)
	}
	m.apply(Op{U: 0, V: 2, W: 9})
	checkEquiv(t, o3, m)
}
