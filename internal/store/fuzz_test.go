package store

// Native fuzz targets for the three parsers that consume untrusted
// bytes: the edge-list text decoder, the Ligra adjacency text decoder,
// and the v2 container section table. Each target asserts the parser's
// contract — reject with an error or return a structurally sound graph,
// never panic or over-allocate — and, where an encoder exists, that an
// accepted input round-trips. The seed corpus reproduces the handcrafted
// malformed cases of io_malformed_test.go plus valid encodings of every
// representation. CI runs each target briefly (-fuzztime smoke) on every
// push; `go test -fuzz` digs deeper locally.

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"sage/internal/compress"
	"sage/internal/graph"
)

// walkAdj touches every vertex's degree and full adjacency, failing on
// out-of-range endpoints — the invariant that makes a parsed graph safe
// to hand to the traversal layer.
func walkAdj(t *testing.T, a graph.Adj) {
	n := a.NumVertices()
	var arcs uint64
	var s graph.Scratch
	for v := uint32(0); v < n; v++ {
		deg := a.Degree(v)
		arcs += uint64(deg)
		nghs, _ := a.Slice(v, 0, deg, &s)
		for _, ngh := range nghs {
			if ngh >= n {
				t.Fatalf("vertex %d has out-of-range neighbor %d (n=%d)", v, ngh, n)
			}
		}
	}
	if arcs != a.NumEdges() {
		t.Fatalf("degree sum %d != m %d", arcs, a.NumEdges())
	}
}

func FuzzEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n2 0\n"))
	f.Add([]byte("# sage-edgelist n=6 weighted=1\n0 1 4\n1 2 -7\n"))
	f.Add([]byte("# sage-edgelist n=2\n\n  \n0 1\n"))
	f.Add([]byte("0 1\n1 2 9\n"))                       // weight appears late
	f.Add([]byte("# sage-edgelist n=1\n5 6\n"))         // endpoint out of declared range
	f.Add([]byte("# sage-edgelist n=99999999999999\n")) // n beyond uint32
	f.Add([]byte("4294967295 0\n"))                     // max endpoint
	f.Add([]byte("0 1 2 3\n"))                          // too many fields
	f.Add([]byte("a b\n"))                              // non-numeric
	f.Fuzz(func(t *testing.T, data []byte) {
		// A declared "# sage-edgelist n=" header is honored up to uint32
		// by design (it is how the encoder round-trips sparse graphs),
		// so a fuzzed giant declaration would legitimately allocate O(n)
		// — skip those inputs instead of timing out on the allocation.
		declared, weighted := int64(-1), -1
		for _, line := range strings.Split(string(data), "\n") {
			parseEdgeListHeader(strings.TrimSpace(line), &declared, &weighted)
		}
		if declared > 1<<22 {
			return
		}
		g, err := readEdgeList(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		walkAdj(t, g)
		// Accepted inputs round-trip: encode and re-parse to an
		// identical shape (the encoder writes the pinning header, so n
		// survives even with trailing isolated vertices).
		var buf bytes.Buffer
		if err := encodeEdgeList(&buf, NewDataset(g, nil)); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		g2, err := readEdgeList(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("re-parse of encoded graph failed: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: n %d->%d m %d->%d",
				g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
		}
	})
}

func FuzzAdjText(f *testing.F) {
	valid := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}},
		graph.BuildOpts{Symmetrize: true})
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("AdjacencyGraph\n3\n4\n0\n2\n3\n1\n2\n0\n0\n"))
	f.Add([]byte("AdjacencyGraph\n1000000000\n1\n0\n0\n")) // huge n, tiny payload
	f.Add([]byte("WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n5\n5\n"))
	f.Add([]byte("AdjacencyGraph\n2\n2\n0\n1\n9\n9\n")) // out-of-range targets
	f.Add([]byte("AdjacencyGraph"))                     // header only
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		walkAdj(t, g)
	})
}

// containerSeeds builds valid v2 containers for both representations
// plus the corrupted variants of TestContainerMalformed.
func containerSeeds(f *testing.F) {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}},
		graph.BuildOpts{Symmetrize: true})
	var csr bytes.Buffer
	if err := graph.WriteContainer(&csr, graph.Sections(g)); err != nil {
		f.Fatal(err)
	}
	f.Add(csr.Bytes())

	var cg bytes.Buffer
	if err := graph.WriteContainer(&cg, compress.Sections(g, 64)); err != nil {
		f.Fatal(err)
	}
	f.Add(cg.Bytes())

	base := csr.Bytes()
	mutations := []func(b []byte){
		func(b []byte) { b[0] ^= 0xff },                                            // bad magic
		func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<20) },             // huge section count
		func(b []byte) { binary.LittleEndian.PutUint64(b[16+8:], uint64(len(b))) }, // offset at EOF
		func(b []byte) { binary.LittleEndian.PutUint64(b[16+8:], 20) },             // misaligned offset
	}
	for _, corrupt := range mutations {
		b := append([]byte(nil), base...)
		corrupt(b)
		f.Add(b)
	}
	f.Add(base[:10]) // truncated
}

func FuzzContainer(f *testing.F) {
	containerSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := graph.ParseContainer(data)
		if err != nil {
			return
		}
		h, err := graph.ParseHeader(secs)
		if err != nil {
			return
		}
		// Decode without forcing a copy — the zero-copy alias path is
		// exactly what a corrupt mmap-opened file exercises. The decode
		// contract covers framing and all vertex-proportional metadata
		// (section lengths, offset monotonicity and base, degree sums);
		// the edge payload itself is deliberately NOT scanned — doing so
		// would fault in every page of a lazily mapped file — so this
		// target asserts the metadata invariants and does not walk the
		// adjacency. (The text parsers validate edge content fully and
		// their targets do walk it.)
		var adj graph.Adj
		if h.Compressed() {
			cg, err := compress.CGraphFromSections(secs, h, false)
			if err != nil {
				return
			}
			adj = cg
		} else {
			csr, err := graph.CSRFromSections(secs, h, false)
			if err != nil {
				return
			}
			adj = csr
		}
		if adj.NumVertices() != h.N || adj.NumEdges() != h.M {
			t.Fatalf("decoded shape n=%d m=%d disagrees with header n=%d m=%d",
				adj.NumVertices(), adj.NumEdges(), h.N, h.M)
		}
		var degSum uint64
		for v := uint32(0); v < adj.NumVertices(); v++ {
			degSum += uint64(adj.Degree(v))
		}
		if degSum != adj.NumEdges() {
			t.Fatalf("degree sum %d != m %d", degSum, adj.NumEdges())
		}
	})
}
