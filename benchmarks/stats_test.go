package main

import (
	"math"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestOverWindowsVotesOutOneBurst(t *testing.T) {
	// Five windows of 1,000 samples at 1 ms; one window holds a burst of 100
	// slow samples. The p99 of everything sees the burst; the median of the
	// per-window p99s does not.
	var windows [][]float64
	var all []float64
	for w := 0; w < 5; w++ {
		win := make([]float64, 1000)
		for i := range win {
			win[i] = 1
			if w == 2 && i < 100 {
				win[i] = 40
			}
		}
		windows = append(windows, win)
		all = append(all, win...)
	}
	if got := overWindows(windows, 99); got != 1 {
		t.Errorf("median of the per-window p99s = %v, want 1", got)
	}
	if got := percentile(sortedCopy(all), 99); got != 40 {
		t.Errorf("plain p99 = %v, want 40", got)
	}
	// An empty window (a class the window never saw) is skipped.
	sparse := [][]float64{{3, 1, 2}, nil, {5, 4, 6, 7}}
	if got, n := overWindows(sparse, 50), smallestWindow(sparse); got != 3.5 || n != 3 {
		t.Errorf("overWindows(p50) = %v, smallest window %d, want 3.5 and 3", got, n)
	}
	if got, n := overWindows(nil, 50), smallestWindow(nil); got != 0 || n != 0 {
		t.Errorf("overWindows of nothing = %v, smallest window %d", got, n)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 7, 9, 11})
	if q1 != 4 || q3 != 9 {
		t.Errorf("quartiles = %v, %v, want 4, 9", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
