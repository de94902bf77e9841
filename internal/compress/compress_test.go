package compress

import (
	"testing"
	"testing/quick"

	"sage/internal/gen"
	"sage/internal/graph"
)

func TestVarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<35 + 7, ^uint64(0)}
	buf := make([]byte, 12)
	for _, v := range vals {
		n := putVarint(buf, v)
		if n != varintLen(v) {
			t.Fatalf("len mismatch for %d", v)
		}
		got, k := getVarint(buf)
		if got != v || k != n {
			t.Fatalf("roundtrip %d -> %d", v, got)
		}
	}
}

func TestVarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		buf := make([]byte, 12)
		n := putVarint(buf, v)
		got, k := getVarint(buf)
		return got == v && k == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag %d", v)
		}
	}
}

func checkEquivalent(t *testing.T, g *graph.Graph, c *CGraph) {
	t.Helper()
	if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("header mismatch")
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("deg(%d): %d vs %d", v, c.Degree(v), g.Degree(v))
		}
		want := g.Neighbors(v)
		got, _ := c.Slice(v, 0, c.Degree(v), &graph.Scratch{})
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d nghs vs %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d[%d]: %d vs %d", v, i, got[i], want[i])
			}
		}
	}
}

func TestCompressRoundTripBlockSizes(t *testing.T) {
	g := gen.RMAT(10, 8, 42)
	for _, bs := range []int{64, 128, 256} {
		c := Compress(g, bs)
		if c.BlockSize() != bs {
			t.Fatalf("block size %d", c.BlockSize())
		}
		checkEquivalent(t, g, c)
	}
}

func TestCompressGrid(t *testing.T) {
	g := gen.Grid2D(20, 20, false)
	checkEquivalent(t, g, Compress(g, 64))
}

func TestCompressSubRange(t *testing.T) {
	g := gen.RMAT(8, 16, 7)
	c := Compress(g, 64)
	for v := uint32(0); v < g.NumVertices(); v++ {
		deg := g.Degree(v)
		if deg < 5 {
			continue
		}
		lo, hi := deg/4, deg/4*3
		want := g.Neighbors(v)[lo:hi]
		got, _ := c.Slice(v, lo, hi, &graph.Scratch{})
		if len(got) != len(want) {
			t.Fatalf("v=%d range [%d,%d): %d vs %d", v, lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d[%d]", v, i)
			}
		}
	}
}

func TestDecodeBlockInto(t *testing.T) {
	g := gen.RMAT(8, 16, 3)
	c := Compress(g, 64)
	buf := make([]uint32, 0, 64)
	for v := uint32(0); v < g.NumVertices(); v++ {
		deg := g.Degree(v)
		nb := (deg + 63) / 64
		var all []uint32
		for b := uint32(0); b < nb; b++ {
			blk := c.DecodeBlockInto(v, b, buf)
			all = append(all, blk...)
		}
		want := g.Neighbors(v)
		if len(all) != len(want) {
			t.Fatalf("v=%d: %d vs %d", v, len(all), len(want))
		}
		for i := range want {
			if all[i] != want[i] {
				t.Fatalf("v=%d[%d]", v, i)
			}
		}
	}
}

func TestScanCostBlockAligned(t *testing.T) {
	g := gen.Star(200) // center degree 199, 4 blocks at bs=64
	c := Compress(g, 64)
	// Reading one edge should cost a full block, not one word.
	oneEdge := c.ScanCost(0, 0, 1)
	fullBlock := c.ScanCost(0, 0, 64)
	if oneEdge != fullBlock {
		t.Fatalf("partial block read cost %d != full block cost %d", oneEdge, fullBlock)
	}
	all := c.ScanCost(0, 0, 199)
	if all < fullBlock {
		t.Fatalf("full scan cheaper than one block")
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	g := gen.RMAT(12, 16, 99)
	c := Compress(g, 64)
	if c.SizeWords() >= g.SizeWords() {
		t.Fatalf("compressed %d words >= raw %d words", c.SizeWords(), g.SizeWords())
	}
}

func TestCompressEmptyAndTinyVertices(t *testing.T) {
	// Vertex 3 is isolated.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOpts{Symmetrize: true})
	c := Compress(g, 64)
	checkEquivalent(t, g, c)
	if c.Degree(3) != 0 {
		t.Fatal("isolated vertex degree")
	}
	if nghs, _ := c.Slice(3, 0, 0, &graph.Scratch{}); len(nghs) != 0 {
		t.Fatalf("empty vertex yields %v", nghs)
	}
}

func TestCompressWeightedRoundTrip(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(9, 10, 13), 7)
	c := Compress(g, 64)
	if !c.Weighted() {
		t.Fatal("weighted flag lost")
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		want := g.Neighbors(v)
		ws := g.NeighborWeights(v)
		gotN, gotW := c.Slice(v, 0, c.Degree(v), &graph.Scratch{})
		if len(gotN) != len(want) {
			t.Fatalf("v=%d: %d vs %d neighbors", v, len(gotN), len(want))
		}
		for i := range want {
			if gotN[i] != want[i] || gotW[i] != ws[i] {
				t.Fatalf("v=%d[%d]: (%d,%d) vs (%d,%d)", v, i, gotN[i], gotW[i], want[i], ws[i])
			}
		}
	}
}

func TestCompressWeightedNegativeWeights(t *testing.T) {
	g := graph.FromWeightedEdges(3, []graph.WEdge{
		{U: 0, V: 1, W: -7}, {U: 1, V: 2, W: 1000000},
	}, graph.BuildOpts{Symmetrize: true})
	c := Compress(g, 64)
	_, got := c.Slice(1, 0, c.Degree(1), &graph.Scratch{})
	if len(got) != 2 || got[0] != -7 || got[1] != 1000000 {
		t.Fatalf("weights %v", got)
	}
}
