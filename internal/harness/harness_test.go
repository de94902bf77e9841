package harness

import (
	"strings"
	"testing"

	"sage/internal/parallel"
)

// The harness tests assert the *shape* of every reproduced result: who
// wins, in which direction, and (loosely) by what kind of factor — the
// reproduction criteria for the paper's evaluation.

const testScale = 12

func TestFig1Shape(t *testing.T) {
	rep := RunFig1(testScale)
	if got := rep.Metrics["avg/gbbs_over_sage"]; got < 1.2 {
		t.Fatalf("Sage should beat GBBS-MemMode on average; got %.2fx (paper 1.87x)", got)
	}
	if got := rep.Metrics["avg/galois_over_sage"]; got < 1.0 {
		t.Fatalf("Sage should beat the Galois baseline on average; got %.2fx (paper 1.94x)", got)
	}
	// Every problem must have been measured.
	if len(rep.Rows) != len(Problems()) {
		t.Fatalf("expected %d rows, got %d", len(Problems()), len(rep.Rows))
	}
}

func TestFig7Shape(t *testing.T) {
	// One worker: CAS races in the parallel algorithms move the PSAM
	// counts between runs enough to cross the 0.99 floor now and then.
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	rep := RunFig7(testScale)
	// Sage on NVRAM matches Sage on DRAM because the PSAM charges an
	// NVRAM read the same unit as a DRAM read (§3.2) and Sage writes no
	// NVRAM. The ratio checks that model, not a measurement of hidden
	// NVRAM latency (paper: within 5% on Optane).
	if r := rep.Metrics["avg/sage_nvram_over_sage_dram"]; r < 0.99 || r > 1.06 {
		t.Fatalf("Sage-NVRAM/Sage-DRAM = %.3f, want ~1.0 (paper 1.05)", r)
	}
	// libvmmalloc conversion is substantially slower than Sage on NVRAM.
	if r := rep.Metrics["avg/libvmm_over_sage_nvram"]; r < 1.5 {
		t.Fatalf("libvmmalloc only %.2fx slower than Sage-NVRAM (paper 6.69x)", r)
	}
	// Every problem individually: libvmmalloc never beats Sage-NVRAM.
	for _, p := range Problems() {
		if r := rep.Metrics[p.Name+"/libvmm_over_sage_nvram"]; r < 1.0 {
			t.Fatalf("%s: libvmmalloc beat Sage-NVRAM (%.2f)", p.Name, r)
		}
	}
	// Triangle counting is the paper's noted non-win (GBBS-DRAM 1.73x
	// faster on compressed inputs; Table 4 covers the decode
	// amplification). On CSR the filter's active-position fast path
	// brings the two designs to parity — assert they stay comparable
	// rather than Sage winning outright.
	if r := rep.Metrics["Triangle-Count/gbbs_dram_over_sage_dram"]; r < 0.4 || r > 2.5 {
		t.Fatalf("triangle counting should be comparable across designs, ratio %.2f", r)
	}
}

func TestTable1Shape(t *testing.T) {
	rep := RunTable1(testScale)
	for key, v := range rep.Metrics {
		switch {
		case strings.Contains(key, "/Sage/growth"):
			if v != 1.0 {
				t.Fatalf("%s = %.3f, Sage cost must be independent of omega", key, v)
			}
		case strings.Contains(key, "/GBBS-NVRAM/growth"):
			if v <= 1.0 {
				t.Fatalf("%s = %.3f, GBBS cost must grow with omega", key, v)
			}
		}
	}
	if len(rep.Rows) != 12 {
		t.Fatalf("expected 6 problems x 2 systems, got %d rows", len(rep.Rows))
	}
}

func TestTable2Shape(t *testing.T) {
	rep := RunTable2(testScale)
	if len(rep.Rows) != 5 {
		t.Fatalf("rows %d", len(rep.Rows))
	}
	// Social/web graphs sit in the paper's davg envelope; the road grid
	// is sparse.
	if rep.Metrics["rmat-web/davg"] < 10 {
		t.Fatal("web graph below the Figure 2 density line")
	}
	if rep.Metrics["grid-road/davg"] > 10 {
		t.Fatal("road network unexpectedly dense")
	}
}

func TestTable3Shape(t *testing.T) {
	rep := RunTable3(testScale)
	if avg := rep.Metrics["avg/semiext_over_sage"]; avg < 3 {
		t.Fatalf("semi-external engine only %.1fx more expensive (paper ~9-12x)", avg)
	}
	for _, key := range []string{"BFS", "SSSP", "Connectivity", "PageRank(1 iter)"} {
		if r := rep.Metrics[key+"/semiext_over_sage"]; r < 1 {
			t.Fatalf("%s: semi-external beat Sage (%.2f)", key, r)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	rep := RunTable4(testScale)
	iw64 := rep.Metrics["bs64/intersection_work"]
	iw256 := rep.Metrics["bs256/intersection_work"]
	if iw64 != iw256 {
		t.Fatalf("intersection work should be invariant: %v vs %v", iw64, iw256)
	}
	tw64 := rep.Metrics["bs64/total_work"]
	tw128 := rep.Metrics["bs128/total_work"]
	tw256 := rep.Metrics["bs256/total_work"]
	if !(tw64 < tw128 && tw128 < tw256) {
		t.Fatalf("total work should grow with block size: %v %v %v", tw64, tw128, tw256)
	}
	if c64, c256 := rep.Metrics["bs64/cost"], rep.Metrics["bs256/cost"]; c64 >= c256 {
		t.Fatalf("cost should grow with block size: %v vs %v", c64, c256)
	}
}

func TestTable5Shape(t *testing.T) {
	rep := RunTable5(testScale)
	sparse := rep.Metrics["edgeMapSparse/peak"]
	blocked := rep.Metrics["edgeMapBlocked/peak"]
	chunked := rep.Metrics["edgeMapChunked/peak"]
	if chunked >= sparse {
		t.Fatalf("chunked peak %v >= sparse peak %v", chunked, sparse)
	}
	if chunked >= blocked {
		t.Fatalf("chunked peak %v >= blocked peak %v", chunked, blocked)
	}
	if gain := rep.Metrics["direction_opt_gain"]; gain < 1.5 {
		t.Fatalf("direction optimization gain %.1fx too small (paper 3.1x)", gain)
	}
}

func TestReportFormatting(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	out := rep.String()
	for _, want := range []string{"== x: t ==", "A", "333", "-- note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(10)
	b := NewWorkload(10)
	if a.G.NumEdges() != b.G.NumEdges() || a.WG.NumEdges() != b.WG.NumEdges() {
		t.Fatal("workload not deterministic")
	}
}

func TestSetCoverInstanceLayout(t *testing.T) {
	w := NewWorkload(8)
	if w.SetCover.NumVertices() != 2*w.G.NumVertices() {
		t.Fatal("bipartite layout wrong")
	}
	// Sets only connect to elements.
	ns := w.NumSets
	for v := uint32(0); v < ns; v++ {
		for _, u := range w.SetCover.Neighbors(v) {
			if u < ns {
				t.Fatalf("set %d adjacent to set %d", v, u)
			}
		}
	}
}

func TestAppD1Shape(t *testing.T) {
	rep := RunAppD1(testScale)
	base := rep.Metrics["original/count"]
	if base <= 0 {
		t.Fatal("no triangles counted")
	}
	for _, ord := range []string{"degree", "random"} {
		if rep.Metrics[ord+"/count"] != base {
			t.Fatalf("%s ordering changed the count", ord)
		}
	}
	// The work profiles must differ across orderings (the D.1 effect).
	if rep.Metrics["degree/intersection"] == rep.Metrics["random/intersection"] {
		t.Fatal("orderings produced identical work profiles (suspicious)")
	}
}
