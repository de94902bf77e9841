package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the two middle values for
// an even count) without reordering the caller's slice; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// overWindows is how every request workload condenses a measured phase
// cut into consecutive windows: the p-th percentile is taken in each
// window that has samples and the median of the results is returned. One
// slow burst (a GC cycle, a noisy neighbour) lands in one window and is
// voted out, which is what makes a figure, a tail above all, repeat from
// run to run.
func overWindows(windows [][]float64, p float64) float64 {
	var stats []float64
	for _, w := range windows {
		if len(w) > 0 {
			stats = append(stats, percentile(sortedCopy(w), p))
		}
	}
	return median(stats)
}

// smallestWindow is the sample count of the smallest non-empty window:
// the count a per-window percentile has to be judged by.
func smallestWindow(windows [][]float64) int {
	n := 0
	for _, w := range windows {
		if len(w) > 0 && (n == 0 || len(w) < n) {
			n = len(w)
		}
	}
	return n
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method) computes them — the rule the contract
// this benchmark is written to uses for run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of their
// median (0 when the median is 0).
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
