package main

import "testing"

func sum(values ...float64) summary {
	return summary{Median: median(values), Spread: spreadShare(values), Values: values}
}

func TestJudgeBothDirections(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name     string
		spec     metricSpec
		old, new summary
		want     verdict
	}{
		{"lower: 5% slower is inside the bound", lower, sum(100, 101, 99), sum(105, 106, 104), verdictOK},
		{"lower: 15% slower is worse", lower, sum(100, 101, 99), sum(115, 116, 114), verdictWorse},
		{"lower: 30% faster is fine", lower, sum(100, 101, 99), sum(70, 71, 69), verdictOK},
		{"higher: 5% less is inside the bound", higher, sum(1000, 1010, 990), sum(950, 960, 940), verdictOK},
		{"higher: 15% less is worse", higher, sum(1000, 1010, 990), sum(850, 860, 840), verdictWorse},
		{"higher: 30% more is fine", higher, sum(1000, 1010, 990), sum(1300, 1310, 1290), verdictOK},
		{"spread wider than the bound is unresolved", lower, sum(60, 100, 140), sum(120, 121, 119), verdictUnresolved},
		{"spread wider than the bound, yet every run better", lower, sum(60, 100, 140), sum(50, 51, 49), verdictOK},
		{"a noisy side is unresolved", lower, summary{Median: 100, Values: []float64{100}, Noisy: true}, sum(100), verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}
