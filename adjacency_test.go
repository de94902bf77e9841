package sage_test

// One neighbour-access path, one test: every graph.Adj in the repo — CSR,
// byte-compressed, the update overlay (over either base), both edge
// filters, and a filter over an overlay — must read, through
// graph.Flat.Slice, exactly the sub-slices of a reference CSR holding the
// same edges, for whole lists, random ranges, ranges straddling decode
// blocks, and out-of-range bounds.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/gbbs"
	"sage/internal/gen"
	"sage/internal/gfilter"
	"sage/internal/graph"
)

type adjCase struct {
	name string
	adj  graph.Adj
	ref  *graph.Graph // the same edges as a plain CSR
}

// keepEdge is the (symmetric) predicate the filter cases pack with.
func keepEdge(u, ngh uint32) bool { return (u+ngh)%3 != 0 }

// rebuild returns g with ops applied and, if keep is non-nil, only the
// edges keep accepts — built from scratch, sharing no code with the
// overlay or the filters.
func rebuild(g *graph.Graph, ops []delta.Op, keep func(u, v uint32) bool) *graph.Graph {
	type pair struct{ u, v uint32 }
	edges := map[pair]int32{}
	for v := uint32(0); v < g.NumVertices(); v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			if v < u {
				w := int32(1)
				if ws != nil {
					w = ws[i]
				}
				edges[pair{v, u}] = w
			}
		}
	}
	for _, op := range ops {
		p := pair{min(op.U, op.V), max(op.U, op.V)}
		if op.Del {
			delete(edges, p)
		} else {
			edges[p] = op.W
		}
	}
	var out []graph.WEdge
	for p, w := range edges {
		if keep == nil || keep(p.u, p.v) {
			out = append(out, graph.WEdge{U: p.u, V: p.v, W: w})
		}
	}
	if g.Weighted() {
		return graph.FromWeightedEdges(g.NumVertices(), out, graph.BuildOpts{Symmetrize: true})
	}
	plain := make([]graph.Edge, len(out))
	for i, e := range out {
		plain[i] = graph.Edge{U: e.U, V: e.V}
	}
	return graph.FromEdges(g.NumVertices(), plain, graph.BuildOpts{Symmetrize: true})
}

// overlayOps deletes one edge and inserts one at every odd vertex, never
// with vertex 0 at the far end: vertex 0 and many other even vertices
// keep no delta at all, next to neighbours that do.
func overlayOps(g *graph.Graph) []delta.Op {
	r := rand.New(rand.NewPCG(7, 11))
	n := g.NumVertices()
	var ops []delta.Op
	for v := uint32(1); v < n; v += 2 {
		if nghs := g.Neighbors(v); len(nghs) > 0 && nghs[len(nghs)-1] != 0 {
			ops = append(ops, delta.Op{U: v, V: nghs[len(nghs)-1], Del: true})
		}
		if u := 1 + uint32(r.IntN(int(n)-1)); u != v {
			ops = append(ops, delta.Op{U: v, V: u, W: 1 + int32(r.IntN(9))})
		}
	}
	return ops
}

func adjCases(t *testing.T) []adjCase {
	t.Helper()
	plain := gen.RMAT(9, 16, 5)
	var cases []adjCase
	for _, g := range []*graph.Graph{plain, gen.AddUniformWeights(plain, 3)} {
		kind := "unweighted"
		if g.Weighted() {
			kind = "weighted"
		}
		cases = append(cases, adjCase{"csr/" + kind, g, g})
		for _, bs := range []int{64, 128} {
			cases = append(cases, adjCase{fmt.Sprintf("byte%d/%s", bs, kind), compress.Compress(g, bs), g})
		}
		ops := overlayOps(g)
		if !g.Weighted() {
			for i := range ops {
				ops[i].W = 1
			}
		}
		merged := rebuild(g, ops, nil)
		for _, base := range []adjCase{{"csr", g, nil}, {"byte64", compress.Compress(g, 64), nil}} {
			ov, err := delta.New(base.adj).Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, adjCase{"overlay-" + base.name + "/" + kind, ov, merged})
			if !g.Weighted() {
				f := gfilter.New(ov, 64, nil)
				f.FilterEdges(keepEdge)
				cases = append(cases, adjCase{"filter-over-overlay-" + base.name, f, rebuild(g, ops, keepEdge)})
			}
		}
	}
	kept := rebuild(plain, nil, keepEdge)
	for _, base := range []adjCase{{"csr", plain, nil}, {"byte64", compress.Compress(plain, 64), nil}} {
		f := gfilter.New(base.adj, 64, nil)
		f.FilterEdges(keepEdge)
		cases = append(cases, adjCase{"gfilter-" + base.name, f, kept})
	}
	mf := gbbs.NewMutFilter(plain, 0, nil)
	mf.FilterEdges(keepEdge)
	return append(cases, adjCase{"gbbs-mutfilter", mf, kept})
}

// wantSlice is the contract on the reference: hi clamps to the degree
// and lo at or past the clamped hi reads nothing.
func wantSlice(ref *graph.Graph, v, lo, hi uint32) ([]uint32, []int32) {
	hi = min(hi, ref.Degree(v))
	lo = min(lo, hi)
	if ws := ref.NeighborWeights(v); ws != nil {
		return ref.Neighbors(v)[lo:hi], ws[lo:hi]
	}
	return ref.Neighbors(v)[lo:hi], nil
}

func checkSlice(t *testing.T, c adjCase, f *graph.Flat, s *graph.Scratch, v, lo, hi uint32) {
	t.Helper()
	nghs, ws := f.Slice(v, lo, hi, s)
	wantN, wantW := wantSlice(c.ref, v, lo, hi)
	if !slices.Equal(nghs, wantN) {
		t.Fatalf("Slice(%d, %d, %d) = %v, want %v", v, lo, hi, nghs, wantN)
	}
	if c.adj.Weighted() {
		if !slices.Equal(ws, wantW) {
			t.Fatalf("Slice(%d, %d, %d) weights = %v, want %v", v, lo, hi, ws, wantW)
		}
	} else if ws != nil {
		t.Fatalf("Slice(%d, %d, %d) returned weights on an unweighted view", v, lo, hi)
	}
}

func TestAdjSliceMatchesReferenceCSR(t *testing.T) {
	for _, c := range adjCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.adj.NumEdges() != c.ref.NumEdges() {
				t.Fatalf("NumEdges = %d, want %d", c.adj.NumEdges(), c.ref.NumEdges())
			}
			f := graph.NewFlat(c.adj)
			var s graph.Scratch
			r := rand.New(rand.NewPCG(1, 2))
			straddled := false
			for v := uint32(0); v < c.ref.NumVertices(); v++ {
				deg := c.ref.Degree(v)
				if got := c.adj.Degree(v); got != deg {
					t.Fatalf("Degree(%d) = %d, want %d", v, got, deg)
				}
				nghs, _ := f.Full(v, &s)
				if !slices.Equal(nghs, c.ref.Neighbors(v)) {
					t.Fatalf("Full(%d) = %v, want %v", v, nghs, c.ref.Neighbors(v))
				}
				for trial := 0; trial < 8; trial++ {
					lo := uint32(r.IntN(int(deg) + 1))
					checkSlice(t, c, &f, &s, v, lo, lo+uint32(r.IntN(int(deg-lo)+1)))
				}
				// Ranges that start and end one off either side of every
				// 64-edge decode block boundary.
				for b := uint32(64); b < deg; b += 64 {
					straddled = true
					checkSlice(t, c, &f, &s, v, b-1, b+1)
					checkSlice(t, c, &f, &s, v, b-3, min(b+64+2, deg))
					checkSlice(t, c, &f, &s, v, b, deg)
				}
			}
			if !straddled {
				t.Fatal("fixture has no vertex spanning two decode blocks")
			}
		})
	}
}

// TestAdjSliceClampsOutOfRange pins the one contract for bounds past the
// list on every representation: hi clamps to deg(v), lo at or past the
// clamped hi yields nothing — never a neighbouring vertex's edges.
func TestAdjSliceClampsOutOfRange(t *testing.T) {
	for _, c := range adjCases(t) {
		t.Run(c.name, func(t *testing.T) {
			f := graph.NewFlat(c.adj)
			var s graph.Scratch
			for v := uint32(0); v < c.ref.NumVertices(); v++ {
				deg := c.ref.Degree(v)
				checkSlice(t, c, &f, &s, v, 0, deg+7)
				checkSlice(t, c, &f, &s, v, deg/2, math.MaxUint32)
				checkSlice(t, c, &f, &s, v, deg, deg+7)
				checkSlice(t, c, &f, &s, v, deg+3, deg+9)
				checkSlice(t, c, &f, &s, v, deg+3, 1)
			}
		})
	}
}
