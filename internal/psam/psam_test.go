package psam

import (
	"testing"
	"unsafe"

	"sage/internal/costmodel"
	"sage/internal/parallel"
)

// Env.Cost is the tracker's totals priced by the environment's profile.
func TestCountsCost(t *testing.T) {
	e := NewEnv(AppDirect)
	e.Profile.NVRAMRead, e.Profile.Omega, e.Profile.MissCost = 3, 4, 3
	e.Track.DRAMRead(0, 10)
	e.Track.DRAMWrite(0, 5)
	e.Track.NVRAMRead(1, 2)
	e.Track.NVRAMWrite(1, 1)
	e.Track.CacheAccess(2, 0, 4)
	// 10 + 5 + 3*2 + 3*4*1 + 3*4 = 45
	if got := e.Cost(); got != 45 {
		t.Fatalf("cost=%d want 45", got)
	}
}

// The hot-path charge is one add into the worker's own cache line: a
// shard is the six counters padded to exactly 64 bytes.
func TestShardIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shard{}); got != 64 {
		t.Fatalf("sizeof(shard) = %d, want 64", got)
	}
}

// A Memory-Mode hit word is booked as a DRAM read and as a CacheHits
// statistic; energy bills it once (regression: it was billed under both).
func TestCacheHitEnergyBilledOnce(t *testing.T) {
	const hits = 1000
	for _, p := range costmodel.Models() {
		tr := NewTracker()
		tr.CacheAccess(3, hits, 0)
		tot := tr.Totals()
		if tot.CacheHits != hits || tot.DRAMReads != hits {
			t.Fatalf("totals %+v", tot)
		}
		if got, want := p.EnergyNJ(tot), hits*p.EDRAMRead/1000; got != want {
			t.Errorf("%s: EnergyNJ of %d hit words = %v nJ, want %v", p.ModelName, hits, got, want)
		}
		if got := p.Cost(tot); got != hits {
			t.Errorf("%s: Cost of %d hit words = %d, want %d", p.ModelName, hits, got, hits)
		}
	}
}

func TestTrackerShardedConcurrent(t *testing.T) {
	tr := NewTracker()
	parallel.ForWorker(100_000, 16, func(w, _ int) {
		tr.NVRAMRead(w, 1)
		tr.DRAMWrite(w, 2)
	})
	tot := tr.Totals()
	if tot.NVRAMReads != 100_000 || tot.DRAMWrites != 200_000 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestOmegaScalesWriteCostOnly(t *testing.T) {
	// The Sage claim: with zero NVRAM writes, cost is independent of ω.
	sage, gbbs := NewEnv(AppDirect), NewEnv(AppDirect)
	for _, e := range []*Env{sage, gbbs} {
		e.StateRead(0, 100)
		e.GraphRead(0, 0, 50)
	}
	gbbs.GraphWrite(0, 0, 50)
	for _, omega := range []int64{1, 4, 8, 16} {
		for _, e := range []*Env{sage, gbbs} {
			e.Profile.NVRAMRead, e.Profile.Omega = 3, omega
		}
		if sage.Cost() != 250 {
			t.Fatalf("sage cost varies with omega: %d", sage.Cost())
		}
		want := 250 + 3*omega*50
		if gbbs.Cost() != want {
			t.Fatalf("gbbs cost %d want %d", gbbs.Cost(), want)
		}
	}
}

func TestCacheHitsAfterFill(t *testing.T) {
	c := NewCache(1 << 20) // plenty of lines
	h, m, wb := c.AccessRange(0, 1024, false)
	if h != 0 || m != 1024/CacheBlockWords || wb != 0 {
		t.Fatalf("cold: h=%d m=%d wb=%d", h, m, wb)
	}
	h, m, _ = c.AccessRange(0, 1024, false)
	if m != 0 || h != 1024/CacheBlockWords {
		t.Fatalf("warm: h=%d m=%d", h, m)
	}
}

func TestCacheConflictMisses(t *testing.T) {
	c := NewCache(CacheBlockWords) // exactly one line
	c.AccessRange(0, 1, false)
	// A different block mapping to the same line must evict.
	h, m, _ := c.AccessRange(int64(CacheBlockWords)*int64(c.Lines()), 1, false)
	if h != 0 || m != 1 {
		t.Fatalf("conflict: h=%d m=%d", h, m)
	}
	h, _, _ = c.AccessRange(0, 1, false)
	if h != 0 {
		t.Fatal("expected the original block to be evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache(CacheBlockWords) // one line
	c.AccessRange(0, 1, true)      // dirty fill
	_, _, wb := c.AccessRange(int64(CacheBlockWords)*int64(c.Lines()), 1, false)
	if wb != 1 {
		t.Fatalf("writebacks=%d want 1", wb)
	}
}

func TestCachePartialBlockCountsOnce(t *testing.T) {
	c := NewCache(1 << 16)
	// Words 5..10 live in one block.
	_, m, _ := c.AccessRange(5, 6, false)
	if m != 1 {
		t.Fatalf("misses=%d want 1", m)
	}
}

func TestEnvModes(t *testing.T) {
	for _, mode := range []Mode{DRAMOnly, AppDirect, NVRAMAll} {
		e := NewEnv(mode)
		e.GraphRead(0, 0, 100)
		e.StateWrite(0, 10)
		tot := e.Totals()
		switch mode {
		case DRAMOnly:
			if tot.DRAMReads != 100 || tot.NVRAMReads != 0 || tot.DRAMWrites != 10 {
				t.Fatalf("DRAMOnly: %+v", tot)
			}
		case AppDirect:
			if tot.NVRAMReads != 100 || tot.DRAMWrites != 10 || tot.NVRAMWrites != 0 {
				t.Fatalf("AppDirect: %+v", tot)
			}
		case NVRAMAll:
			if tot.NVRAMReads != 100 || tot.NVRAMWrites != 10 {
				t.Fatalf("NVRAMAll: %+v", tot)
			}
		}
	}
}

func TestEnvMemoryMode(t *testing.T) {
	e := NewEnv(MemoryMode).WithCache(1 << 20)
	e.GraphRead(0, 0, 1000)
	tot := e.Totals()
	if tot.CacheMisses == 0 {
		t.Fatal("no cold misses recorded")
	}
	e.GraphRead(0, 0, 1000)
	tot2 := e.Totals()
	if tot2.CacheHits <= tot.CacheHits {
		t.Fatal("no hits on re-read")
	}
}

func TestNilEnvSafe(t *testing.T) {
	var e *Env
	e.GraphRead(0, 0, 10)
	e.GraphWrite(0, 0, 10)
	e.StateRead(0, 10)
	e.StateWrite(0, 10)
	e.Alloc(5)
	e.Free(5)
	if e.Cost() != 0 {
		t.Fatal("nil env cost")
	}
}

func TestSpacePeak(t *testing.T) {
	s := NewSpace()
	s.Alloc(100)
	s.Alloc(50)
	s.Free(100)
	s.Alloc(20)
	if s.Peak() != 150 {
		t.Fatalf("peak=%d want 150", s.Peak())
	}
	if s.Current() != 70 {
		t.Fatalf("cur=%d want 70", s.Current())
	}
}

func TestSpaceConcurrentPeak(t *testing.T) {
	s := NewSpace()
	parallel.For(10_000, 16, func(int) {
		s.Alloc(3)
		s.Free(3)
	})
	if s.Current() != 0 {
		t.Fatalf("cur=%d want 0", s.Current())
	}
	if s.Peak() < 3 {
		t.Fatalf("peak=%d", s.Peak())
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		DRAMOnly:   "DRAM",
		AppDirect:  "NVRAM(AppDirect)",
		MemoryMode: "NVRAM(MemoryMode)",
		NVRAMAll:   "NVRAM(libvmmalloc)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d -> %s", m, m.String())
		}
	}
}
