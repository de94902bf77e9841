package sage_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sage"
)

// TestOpenMmapVsCopyEquivalence is the acceptance check for the zero-copy
// path: the same stored graph opened via mmap and via the heap-copy
// fallback must produce identical BFS parents AND identical PSAM golden
// counts — and both must match the never-stored in-memory graph, since
// the accounting is positional and the arrays are bit-identical.
func TestOpenMmapVsCopyEquivalence(t *testing.T) {
	old := sage.Workers()
	defer sage.SetWorkers(old)
	sage.SetWorkers(1) // goldens require deterministic tie-breaking

	mem := sage.GenerateRMAT(11, 8, 7) // the PSAM regression seed graph
	path := filepath.Join(t.TempDir(), "golden.sg")
	if err := sage.Create(path, mem); err != nil {
		t.Fatal(err)
	}
	mapped, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	copied, err := sage.Open(path, sage.WithCopy())
	if err != nil {
		t.Fatal(err)
	}
	defer copied.Close()
	if copied.Mapped() {
		t.Fatal("WithCopy produced a mapping")
	}

	type run struct {
		parents []uint32
		stats   statKey
	}
	runOn := func(g *sage.Graph) run {
		e := sage.NewEngine(sage.WithMode(sage.AppDirect), sage.WithSeed(7))
		parents := sage.Must(e.BFS(bg, g, 0))
		e2 := sage.NewEngine(sage.WithMode(sage.AppDirect), sage.WithSeed(7))
		sage.Must(e2.Connectivity(bg, g))
		s := e.Stats()
		s2 := e2.Stats()
		return run{parents, statKey{
			s.PSAMCost + s2.PSAMCost, s.NVRAMReads + s2.NVRAMReads,
			s.NVRAMWrites + s2.NVRAMWrites, s.DRAMReads + s2.DRAMReads,
			s.DRAMWrites + s2.DRAMWrites, max(s.PeakDRAMWords, s2.PeakDRAMWords)}}
	}
	want := runOn(mem)
	// The BFS golden from psam_regress_test.go pins this workload; the
	// in-memory baseline must still be on it, otherwise this test is
	// comparing three copies of a drifted world.
	if bfs := goldenStats["csr/chunked/bfs"]; want.stats.NVRAMWrites != 0 ||
		bfs.Cost == 0 {
		t.Fatalf("baseline drifted: %+v", want.stats)
	}
	for name, g := range map[string]*sage.Graph{"mmap": mapped, "copy": copied} {
		got := runOn(g)
		if got.stats != want.stats {
			t.Errorf("%s: PSAM counts differ from in-memory:\n got  %+v\n want %+v",
				name, got.stats, want.stats)
		}
		for v := range want.parents {
			if got.parents[v] != want.parents[v] {
				t.Fatalf("%s: BFS parent of %d differs", name, v)
			}
		}
	}
}

// TestWeightsOutliveMappedSource weights a mapped container, closes it,
// and then reads every weight back: the weighted copy must own its arrays,
// since the source's are unmapped by Close, and must equal the weighting
// of the never-stored graph.
func TestWeightsOutliveMappedSource(t *testing.T) {
	mem := sage.GenerateRMAT(12, 8, 3)
	path := filepath.Join(t.TempDir(), "src.sg")
	if err := sage.Create(path, mem); err != nil {
		t.Fatal(err)
	}
	src, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := src.WithUniformWeights(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	want := sage.Must(mem.WithUniformWeights(5)).RawCSR()
	got := wg.RawCSR()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("weighted copy has n=%d m=%d, want n=%d m=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := range got.NumVertices() {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) ||
			!slices.Equal(got.NeighborWeights(v), want.NeighborWeights(v)) {
			t.Fatalf("vertex %d: list or weights differ after the source closed", v)
		}
	}
}

// TestOpenCompressedEquivalence runs a traversal on a compressed graph
// reopened from storage and compares it against the original.
func TestOpenCompressedEquivalence(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 3)
	cg := g.Compress(64)
	path := filepath.Join(t.TempDir(), "c.sg")
	if err := sage.Create(path, cg); err != nil {
		t.Fatal(err)
	}
	cg2, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cg2.Close()
	if !cg2.Compressed() {
		t.Fatal("compressed graph reopened as CSR")
	}
	e := sage.NewEngine(sage.WithSeed(5))
	a := sage.Must(e.BFS(bg, cg, 0))
	b := sage.Must(e.BFS(bg, cg2, 0))
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("parent of %d differs after reopen", v)
		}
	}
	if sage.Must(e.TriangleCount(bg, cg)).Count != sage.Must(e.TriangleCount(bg, cg2)).Count {
		t.Fatal("triangle count differs after reopen")
	}
}

// TestCreateCompressedByteIdentical is the round-trip acceptance check:
// Create → Open → Create must reproduce the file byte for byte.
func TestCreateCompressedByteIdentical(t *testing.T) {
	wg := weighted(t, sage.GenerateRMAT(9, 6, 11), 4)
	cg := wg.Compress(128)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.sg")
	p2 := filepath.Join(dir, "b.sg")
	if err := sage.Create(p1, cg); err != nil {
		t.Fatal(err)
	}
	reopened, err := sage.Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := sage.Create(p2, reopened); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if len(b1) == 0 || !bytes.Equal(b1, b2) {
		t.Fatalf("compressed round trip not byte-identical (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestGraphCloseMisuse pins the lifecycle contract: accessors panic after
// Close, and a second Close reports ErrClosed.
func TestGraphCloseMisuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.sg")
	if err := sage.Create(path, sage.GenerateGrid(8, 8, false)); err != nil {
		t.Fatal(err)
	}
	g, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := g.Close(); !errors.Is(err, sage.ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on closed graph did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NumVertices", func() { g.NumVertices() })
	mustPanic("Raw", func() { g.Raw() })
	mustPanic("engine run", func() { sage.Must(sage.NewEngine().BFS(bg, g, 0)) })
	mustPanic("Create", func() { sage.Create(filepath.Join(t.TempDir(), "x.sg"), g) })
}

// TestErrCompressedUnified verifies every CSR-only operation reports the
// one shared sentinel instead of the old mix of panics and ad-hoc errors.
func TestErrCompressedUnified(t *testing.T) {
	cg := sage.GenerateRMAT(8, 6, 2).Compress(64)
	if _, err := cg.WithUniformWeights(1); !errors.Is(err, sage.ErrCompressed) {
		t.Fatalf("WithUniformWeights: %v", err)
	}
	if _, err := cg.RelabelByDegree(); !errors.Is(err, sage.ErrCompressed) {
		t.Fatalf("RelabelByDegree: %v", err)
	}
	dir := t.TempDir()
	if err := sage.Create(filepath.Join(dir, "c.adj"), cg); !errors.Is(err, sage.ErrCompressed) {
		t.Fatalf("Create as adjacency text: %v", err)
	}
	if err := sage.Create(filepath.Join(dir, "c.el"), cg); !errors.Is(err, sage.ErrCompressed) {
		t.Fatalf("Create as edgelist: %v", err)
	}
	// The binary container, by contrast, accepts it.
	if err := sage.Create(filepath.Join(dir, "c.sg"), cg); err != nil {
		t.Fatalf("Create as binary: %v", err)
	}
}

// TestOpenFormatOverrideAndListing covers WithFormat and the registry
// listing surface.
func TestOpenFormatOverrideAndListing(t *testing.T) {
	names := sage.Formats()
	if len(names) < 3 {
		t.Fatalf("registry lists %d formats, want >= 3", len(names))
	}
	if len(sage.FormatDescriptions()) != len(names) {
		t.Fatal("descriptions out of sync with names")
	}
	g := sage.GenerateGrid(4, 4, false)
	path := filepath.Join(t.TempDir(), "grid.bin") // .bin maps to the container
	if err := sage.Create(path, g, sage.As(sage.FormatEdgeList)); err != nil {
		t.Fatal(err)
	}
	// Sniffing still identifies the content despite the extension.
	g2, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip mismatch")
	}
	// And an explicit wrong format fails loudly.
	if _, err := sage.Open(path, sage.WithFormat(sage.FormatBinary)); err == nil {
		t.Fatal("edge list decoded as binary container")
	}
}
