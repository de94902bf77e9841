package costmodel

import "testing"

// Word-granular profiles price a count vector by the PSAM formula of
// §3.1, written out: hits are uncharged beyond the DRAM read they are
// booked as, misses pay MissCost, writes pay NVRAMRead·Omega.
func TestWordGranularCostMatchesPSAM(t *testing.T) {
	c := Counts{
		DRAMReads: 1000, DRAMWrites: 500,
		NVRAMReads: 9000, NVRAMWrites: 70,
		CacheHits: 11, CacheMisses: 13,
	}
	swept := Optane()
	swept.NVRAMRead, swept.Omega = 3, 4
	for _, p := range []Profile{Optane(), DRAMOnly(), ReRAM(), swept} {
		want := 1000 + 500 + p.NVRAMRead*9000 + p.NVRAMRead*p.Omega*70 + p.MissCost*13
		if got := p.Cost(c); got != want {
			t.Errorf("%s (r=%d ω=%d): Cost = %d, want %d", p.ModelName, p.NVRAMRead, p.Omega, got, want)
		}
	}
}

// Add and Sub are inverse, field by field.
func TestCountsAddSub(t *testing.T) {
	a := Counts{1, 2, 3, 4, 5, 6}
	b := Counts{10, 20, 30, 40, 50, 60}
	sum := a
	sum.Add(b)
	if want := (Counts{11, 22, 33, 44, 55, 66}); sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	sum.Sub(a)
	if sum != b {
		t.Fatalf("Sub = %+v, want %+v", sum, b)
	}
}

// Page-granular pricing: a count vector's total words round up to whole
// pages; writes pay the program multiplier.
func TestFlashPageGranularCost(t *testing.T) {
	p := FlashCSD()
	if got, want := p.Cost(Counts{NVRAMReads: 1}), p.PageCost; got != want {
		t.Fatalf("1-word read = %d, want one page (%d)", got, want)
	}
	if got, want := p.Cost(Counts{NVRAMReads: PageWords}), p.PageCost; got != want {
		t.Fatalf("page-sized read = %d, want one page (%d)", got, want)
	}
	if got, want := p.Cost(Counts{NVRAMReads: PageWords + 1}), 2*p.PageCost; got != want {
		t.Fatalf("page+1 read = %d, want two pages (%d)", got, want)
	}
	if got, want := p.Cost(Counts{NVRAMWrites: 1}), p.Omega*p.PageCost; got != want {
		t.Fatalf("1-word write = %d, want omega pages (%d)", got, want)
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(Models()) {
		t.Fatalf("Names/Models length mismatch")
	}
	for _, name := range names {
		p, ok := Lookup(name)
		if !ok || p.ModelName != name {
			t.Fatalf("Lookup(%q) = %+v, %v", name, p, ok)
		}
	}
	if _, ok := Lookup("tape"); ok {
		t.Fatal("Lookup of unknown model succeeded")
	}
}

// Energy ordering sanity: on a write-heavy workload ReRAM burns the most,
// DRAM the least; on pure reads NVRAM profiles exceed DRAM.
func TestEnergyOrdering(t *testing.T) {
	reram, optane, dram := ReRAM(), Optane(), DRAMOnly()
	writes := Counts{NVRAMWrites: 1000}
	if r, o := reram.EnergyNJ(writes), optane.EnergyNJ(writes); r <= o {
		t.Fatalf("ReRAM write energy %f should exceed Optane %f", r, o)
	}
	reads := Counts{NVRAMReads: 1000}
	if o, d := optane.EnergyNJ(reads), dram.EnergyNJ(reads); o <= d {
		t.Fatalf("Optane read energy %f should exceed DRAM %f", o, d)
	}
}

// EstimateOps shape: more edges cost more in every class, and the
// asymmetric profiles order classes sensibly (edge-state heaviest).
func TestEstimateOpsShape(t *testing.T) {
	p := Optane()
	for _, cl := range []Class{Traversal, Iterative, EdgeState, Local} {
		small := p.Cost(EstimateOps(cl, 1<<10, 1<<13))
		big := p.Cost(EstimateOps(cl, 1<<12, 1<<15))
		if small <= 0 || big <= small {
			t.Fatalf("%v: cost not increasing (small=%d big=%d)", cl, small, big)
		}
	}
	n, m := uint64(1<<12), uint64(1<<15)
	tr := p.Cost(EstimateOps(Traversal, n, m))
	it := p.Cost(EstimateOps(Iterative, n, m))
	es := p.Cost(EstimateOps(EdgeState, n, m))
	lo := p.Cost(EstimateOps(Local, n, m))
	if !(lo < tr && tr < it && tr < es) {
		t.Fatalf("class ordering local=%d < traversal=%d < {iterative=%d, edge-state=%d} violated", lo, tr, it, es)
	}
}

func TestOverlayOverhead(t *testing.T) {
	p := Optane()
	if got := OverlayOverhead(&p, 0, 0, 0); got != 0 {
		t.Fatalf("empty overlay overhead = %d, want 0", got)
	}
	one := OverlayOverhead(&p, 100, 10, 10)
	two := OverlayOverhead(&p, 200, 20, 20)
	if one <= 0 || two <= one {
		t.Fatalf("overhead not increasing: %d, %d", one, two)
	}
	// Deleted arcs are large-memory scans: flash prices them per page,
	// far above the word-granular profiles.
	f := FlashCSD()
	if fo, oo := OverlayOverhead(&f, 0, 0, 50), OverlayOverhead(&p, 0, 0, 50); fo <= oo {
		t.Fatalf("flash overhead %d should exceed optane %d", fo, oo)
	}
}

func TestClassString(t *testing.T) {
	for cl, want := range map[Class]string{
		Traversal: "traversal", Iterative: "iterative",
		EdgeState: "edge-state", Local: "local", Class(99): "unknown",
	} {
		if got := cl.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", cl, got, want)
		}
	}
}
