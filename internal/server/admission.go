package server

// Admission control: the service bounds in-flight work with three gates —
// concurrency, DRAM words and predicted cost — all checked before a run
// starts.
//
// The first is a plain semaphore on concurrent runs — the parallel worker
// pool is shared, so beyond a small multiple of the core count extra runs
// only add latency.
//
// The second is the PSAM-aware gate: Sage's semi-asymmetric design keeps
// each run's mutable state small-memory (DRAM) resident, and a server
// running many algorithms at once must keep the *sum* of those residencies
// under what DRAM can hold — the aggregate form of the paper's per-run
// small-memory bound. Each run is charged its estimated peak DRAM words
// (sage.EstimateDRAMWords: vertex-proportional for the Table 1 problems,
// edge-proportional for tc/kclique/ktruss) against a configurable budget;
// when the next run would overflow it, the service sheds load with 429 +
// Retry-After instead of letting concurrent runs thrash.
//
// The third is the cost gate: each run is charged its predicted cost
// under the engine's hardware model (sage.Engine.PredictCost — operation
// counts estimated from the algorithm's cost class and the graph's
// (n, m), priced by the selected profile) against a cost budget. Where
// the DRAM gate bounds summed residency, the cost gate bounds summed
// predicted memory traffic — the quantity that actually saturates an
// asymmetric device — and the prediction's latency projection seeds the
// Retry-After estimate before any run has completed.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// admission is the three-gate controller (concurrency, DRAM words,
// predicted cost). The zero value is unusable; use
// newAdmission.
type admission struct {
	slots      chan struct{}
	budget     int64 // DRAM words; 0 = unlimited
	costBudget int64 // predicted model-cost units; 0 = unlimited
	queueWait  time.Duration

	mu            sync.Mutex
	inflightWords int64
	inflightCost  int64
	inflightRuns  int
	ewmaRunNanos  int64 // smoothed run duration feeding Retry-After

	waiting       atomic.Int64 // runs parked in the queue-wait window
	rejectedSlots atomic.Int64
	rejectedWords atomic.Int64
	rejectedCost  atomic.Int64
}

func newAdmission(maxConcurrent int, budgetWords, costBudget int64, queueWait time.Duration) *admission {
	return &admission{
		slots:      make(chan struct{}, maxConcurrent),
		budget:     budgetWords,
		costBudget: costBudget,
		queueWait:  queueWait,
	}
}

// admit reserves a concurrency slot, words of the DRAM budget, and cost
// of the cost budget. On success it returns the release callback; on
// refusal it names the gate ("concurrency", "dram", or "cost") for the
// error body. ctx bounds the optional queue wait for a slot; admission
// never blocks longer than queueWait.
func (a *admission) admit(ctx context.Context, words, cost int64) (release func(), gate string, ok bool) {
	select {
	case a.slots <- struct{}{}:
	default:
		if a.queueWait <= 0 {
			if ctx.Err() != nil {
				// Nothing was shed to a live client; see the queued path.
				return nil, "abandoned", false
			}
			a.rejectedSlots.Add(1)
			return nil, "concurrency", false
		}
		t := time.NewTimer(a.queueWait)
		defer t.Stop()
		a.waiting.Add(1)
		defer a.waiting.Add(-1)
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			// The client abandoned the wait; nothing was shed and no run
			// was cancelled, so no gate counter moves.
			return nil, "abandoned", false
		case <-t.C:
			a.rejectedSlots.Add(1)
			return nil, "concurrency", false
		}
	}

	a.mu.Lock()
	// A single run larger than a whole budget is admitted only when it
	// would run alone: the budgets shed aggregate overload, they do not
	// permanently ban big-footprint algorithms on big graphs.
	if a.budget > 0 && a.inflightWords+words > a.budget && a.inflightRuns > 0 {
		a.mu.Unlock()
		<-a.slots
		a.rejectedWords.Add(1)
		return nil, "dram", false
	}
	if a.costBudget > 0 && a.inflightCost+cost > a.costBudget && a.inflightRuns > 0 {
		a.mu.Unlock()
		<-a.slots
		a.rejectedCost.Add(1)
		return nil, "cost", false
	}
	a.inflightWords += words
	a.inflightCost += cost
	a.inflightRuns++
	a.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflightWords -= words
			a.inflightCost -= cost
			a.inflightRuns--
			a.mu.Unlock()
			<-a.slots
		})
	}, "", true
}

// seed primes the Retry-After estimator with a predicted run duration
// when no run has completed yet — the cost model's latency projection
// stands in for history until the first observation replaces it.
func (a *admission) seed(predicted time.Duration) {
	if predicted <= 0 {
		return
	}
	a.mu.Lock()
	if a.ewmaRunNanos == 0 {
		a.ewmaRunNanos = int64(predicted)
	}
	a.mu.Unlock()
}

// observe feeds one completed run's duration into the smoothed estimate
// behind Retry-After (EWMA, alpha = 1/5: responsive to load shifts
// without tracking every outlier).
func (a *admission) observe(d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ewmaRunNanos == 0 {
		a.ewmaRunNanos = int64(d)
	} else {
		a.ewmaRunNanos += (int64(d) - a.ewmaRunNanos) / 5
	}
}

// retryAfterSeconds estimates when shed load should come back, from
// actual admission state: the queue ahead of a retrying client is every
// waiting run plus itself, drained at capacity slots per smoothed run
// duration. Clamped to [1, 60] — Retry-After must be a positive integer,
// and beyond a minute the estimate is noise.
func (a *admission) retryAfterSeconds() int {
	a.mu.Lock()
	ewma := a.ewmaRunNanos
	a.mu.Unlock()
	if ewma == 0 {
		ewma = int64(time.Second) // no history yet: assume second-scale runs
	}
	queued := a.waiting.Load() + 1
	per := time.Duration(ewma).Seconds() * float64(queued) / float64(cap(a.slots))
	secs := int(per)
	if float64(secs) < per {
		secs++ // round up: retrying early just sheds again
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// snapshot returns the controller's current gauges and counters.
func (a *admission) snapshot() admissionStats {
	a.mu.Lock()
	runs, words, cost, ewma := a.inflightRuns, a.inflightWords, a.inflightCost, a.ewmaRunNanos
	a.mu.Unlock()
	return admissionStats{
		MaxConcurrent:      cap(a.slots),
		DRAMBudgetWords:    a.budget,
		CostBudget:         a.costBudget,
		InflightRuns:       runs,
		InflightDRAMWords:  words,
		InflightCost:       cost,
		WaitingRuns:        a.waiting.Load(),
		EWMARunMS:          float64(ewma) / 1e6,
		RetryAfterS:        a.retryAfterSeconds(),
		RejectedConcurrent: a.rejectedSlots.Load(),
		RejectedDRAM:       a.rejectedWords.Load(),
		RejectedCost:       a.rejectedCost.Load(),
	}
}

// admissionStats is the /metrics view of the controller.
type admissionStats struct {
	MaxConcurrent      int     `json:"max_concurrent"`
	DRAMBudgetWords    int64   `json:"dram_budget_words"`
	CostBudget         int64   `json:"cost_budget"`
	InflightRuns       int     `json:"inflight_runs"`
	InflightDRAMWords  int64   `json:"inflight_dram_words"`
	InflightCost       int64   `json:"inflight_cost"`
	WaitingRuns        int64   `json:"waiting_runs"`
	EWMARunMS          float64 `json:"ewma_run_ms"`
	RetryAfterS        int     `json:"retry_after_s"`
	RejectedConcurrent int64   `json:"rejected_concurrency"`
	RejectedDRAM       int64   `json:"rejected_dram"`
	RejectedCost       int64   `json:"rejected_cost"`
}
