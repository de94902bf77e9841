package psam

import (
	"sync"

	"sage/internal/costmodel"
)

// Aggregate accumulates per-run access counts for an engine shared by
// many goroutines: each completed (or cancelled) run merges its counter
// delta and small-memory peak once, so the runs themselves never
// serialize on it. Counters accumulate by addition; the peak accumulates
// by maximum, since concurrent runs each track their own residency.
type Aggregate struct {
	mu    sync.Mutex
	total costmodel.Counts
	peak  int64
}

// Merge adds a run's counter delta and raises the peak to the run's.
func (a *Aggregate) Merge(c costmodel.Counts, peak int64) {
	a.mu.Lock()
	a.total.Add(c)
	a.peak = max(a.peak, peak)
	a.mu.Unlock()
}

// Totals returns a consistent snapshot of the counters and the peak.
func (a *Aggregate) Totals() (costmodel.Counts, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total, a.peak
}

// Reset zeroes the aggregate. Runs still in flight merge their totals
// when they complete, after the reset.
func (a *Aggregate) Reset() {
	a.mu.Lock()
	a.total, a.peak = costmodel.Counts{}, 0
	a.mu.Unlock()
}
