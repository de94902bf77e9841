package psam

import (
	"sync/atomic"

	"sage/internal/costmodel"
)

// Throttle optionally converts simulated NVRAM cost into real elapsed time
// by busy-spinning in the charging worker, so that wall-clock benchmarks
// also exhibit the read/write asymmetry (not only the deterministic cost
// counters). A nil *Throttle is a no-op, which is the default: the
// experiment harness prefers the deterministic cost model and enables the
// throttle only for the wall-clock validation benches.
type Throttle struct {
	// ReadSpinPerWord and WriteSpinPerWord are loop iterations of busy
	// work injected per NVRAM word read/written. They stand in for the
	// extra latency of the medium; absolute calibration is irrelevant —
	// only the read:write ratio shapes the results.
	ReadSpinPerWord  int64
	WriteSpinPerWord int64
}

// NewThrottle returns a throttle with spin counts proportional to the
// profile's per-word weights: reads spin (NVRAMRead-1)·scale, writes
// (NVRAMRead·Omega-1)·scale. A page-granular profile has no per-word
// weights and yields no spin.
func NewThrottle(p *costmodel.Profile, scale int64) *Throttle {
	return &Throttle{
		ReadSpinPerWord:  (p.NVRAMRead - 1) * scale,
		WriteSpinPerWord: (p.NVRAMRead*p.Omega - 1) * scale,
	}
}

// spinSink defeats dead-code elimination of the spin loops.
var spinSink atomic.Int64

func spin(iters int64) {
	var acc int64
	for i := int64(0); i < iters; i++ {
		acc += i ^ (acc << 1)
	}
	spinSink.Store(acc)
}

// NVRAMReadDelay injects the read-latency penalty for words NVRAM words.
func (t *Throttle) NVRAMReadDelay(words int64) {
	if t == nil || words <= 0 {
		return
	}
	spin(words * t.ReadSpinPerWord)
}

// NVRAMWriteDelay injects the write-latency penalty for words NVRAM words.
func (t *Throttle) NVRAMWriteDelay(words int64) {
	if t == nil || words <= 0 {
		return
	}
	spin(words * t.WriteSpinPerWord)
}
