package main

// -compare: one row per (workload, end-to-end metric) with both medians,
// their ratio, the bound, and a verdict.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

type verdict string

const (
	verdictOK         verdict = "OK"
	verdictWorse      verdict = "WORSE"
	verdictUnresolved verdict = "UNRESOLVED"
)

// judge compares a metric's runs on two commits. The change is WORSE when
// its median is worse than the parent's by more than bound (a share of
// the parent's median, in the metric's bad direction). Where either side
// was marked noisy, or the parent's own run-to-run spread is wider than
// the bound, the pair is UNRESOLVED, not unchanged — unless every run of
// the change reads better than every run of the parent.
func judge(spec metricSpec, old, new summary) verdict {
	worseBy := (new.Median - old.Median) / old.Median
	if spec.Better == "higher" {
		worseBy = -worseBy
	}
	if old.Noisy || new.Noisy || old.Spread > spec.Bound {
		if allBetter(spec, old.Values, new.Values) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worseBy > spec.Bound {
		return verdictWorse
	}
	return verdictOK
}

// allBetter reports whether every new value beats every old one.
func allBetter(spec metricSpec, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	o, n := sortedCopy(old), sortedCopy(new)
	if spec.Better == "higher" {
		return n[0] > o[len(o)-1]
	}
	return n[len(n)-1] < o[0]
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := new(resultsFile)
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func (rf *resultsFile) failed() int {
	n := 0
	for _, rep := range rf.Reports {
		n += rep.Result.Failed
	}
	return n
}

// compareFiles prints the table and reports whether anything is WORSE or
// the new file has more failed operations than the old.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (%d run(s))  vs  %s (%d run(s)); ratio = new ÷ base\n", old.Label, old.Runs, new.Label, new.Runs)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	worse := false
	for i, ws := range everyWorkload() {
		// A reported-only workload's rows are printed, not gated.
		gated := i < len(workloadSpecs)
		for _, spec := range endToEnd {
			o, okOld := old.Summary[ws.Name][spec.Name]
			n, okNew := new.Summary[ws.Name][spec.Name]
			if !okOld || !okNew {
				continue
			}
			v := judge(spec, o, n)
			worse = worse || (gated && v == verdictWorse)
			suffix := ""
			if !gated {
				suffix = " (not gated)"
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %7.3f %5.0f%%  %s%s\n", ws.Name, spec.Name, o.Median, n.Median, n.Median/o.Median, 100*spec.Bound, v, suffix)
		}
	}
	if of, nf := old.failed(), new.failed(); nf > of {
		fmt.Fprintf(w, "failed operations rose from %d to %d\n", of, nf)
		worse = true
	}
	return worse, nil
}
