package graph

import (
	"bytes"
	"strings"
	"testing"

	"sage/internal/parallel"
)

func TestTextRoundTrip(t *testing.T) {
	g := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}},
		BuildOpts{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "AdjacencyGraph\n") {
		t.Fatal("missing header")
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("shape mismatch")
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("edge mismatch at %d", v)
			}
		}
	}
}

func TestTextRoundTripWeighted(t *testing.T) {
	g := FromWeightedEdges(3, []WEdge{{U: 0, V: 1, W: 7}, {U: 1, V: 2, W: -3}},
		BuildOpts{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "WeightedAdjacencyGraph\n") {
		t.Fatal("missing weighted header")
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := g2.EdgeWeight(1, 2)
	if !ok || w != -3 {
		t.Fatalf("weight round trip: %d", w)
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"NotAGraph\n1\n0\n0\n",
		"AdjacencyGraph\n2\n1\n0\n0\n9\n", // edge target out of range
		"AdjacencyGraph\n2\n",             // truncated
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := FromEdges(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}},
		BuildOpts{Symmetrize: true})
	perm := []uint32{5, 4, 3, 2, 1, 0}
	h := g.Relabel(perm)
	if err := h.Validate(true); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if !h.HasEdge(perm[v], perm[u]) {
				t.Fatalf("edge (%d,%d) lost under relabeling", v, u)
			}
		}
	}
}

func TestRelabelWeighted(t *testing.T) {
	g := FromWeightedEdges(3, []WEdge{{U: 0, V: 1, W: 9}, {U: 1, V: 2, W: 4}},
		BuildOpts{Symmetrize: true})
	perm := []uint32{2, 0, 1}
	h := g.Relabel(perm)
	w, ok := h.EdgeWeight(perm[0], perm[1])
	if !ok || w != 9 {
		t.Fatalf("weight lost: %d", w)
	}
}

func TestDegreeOrderIsPermutation(t *testing.T) {
	g := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 4}},
		BuildOpts{Symmetrize: true})
	perm := g.DegreeOrder()
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if seen[p] {
			t.Fatal("not a permutation")
		}
		seen[p] = true
	}
	// Vertex 0 has the max degree: it must be renamed 0.
	if perm[0] != 0 {
		t.Fatalf("hub renamed to %d", perm[0])
	}
}

func TestRandomOrderDeterministicPermutation(t *testing.T) {
	g := FromEdges(64, nil, BuildOpts{})
	a := g.RandomOrder(5)
	b := g.RandomOrder(5)
	c := g.RandomOrder(6)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed differs")
	}
	if !diff {
		t.Fatal("different seeds agree everywhere")
	}
	count := parallel.Count(len(a), 0, func(i int) bool { return int(a[i]) < len(a) })
	if count != len(a) {
		t.Fatal("out of range")
	}
}
