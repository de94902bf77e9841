package main

// The all-workloads mode: every workload in a process of its own, so
// resident-set high-water marks, heap and GC state never leak from one
// workload into the next; one results file for -compare to read.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// resultsFile is what the all-workloads mode writes and -compare reads.
type resultsFile struct {
	Label   string      `json:"label"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    int         `json:"runs"`
	Machine machineInfo `json:"machine"`
	// Reports holds every run, untraced and traced, in execution order:
	// run r of every workload before run r+1 of any, so two sets of runs
	// interleave in time. Their metric values live in Summary.
	Reports []*report `json:"reports"`
	// Summary is, per workload and metric, the median over the runs with
	// their interquartile spread as a share of it; the traced pass adds
	// trace.overhead_share, 1 - traced ops/s ÷ untraced.
	Summary map[string]map[string]summary `json:"summary"`
}

type summary struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Noisy  bool      `json:"noisy,omitempty"`
}

func runAll(cfg config, runs int, label string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if label == "" {
		label = gitLabel()
	}
	out := &resultsFile{Label: label, Seed: cfg.seed, Seconds: cfg.seconds, Runs: runs, Machine: machine(cfg.dataRoot)}
	resultsDir := filepath.Join("benchmarks", "results")
	traces := map[string]json.RawMessage{}
	passes := []bool{false}
	if cfg.trace {
		passes = append(passes, true)
	}
	for r := 0; r < runs; r++ {
		for _, w := range everyWorkload() {
			for _, traced := range passes {
				child := cfg
				child.workload, child.seed, child.trace = w.Name, cfg.seed+uint64(r), traced
				rep, spans, err := runChild(self, child)
				if err != nil {
					return err
				}
				out.Reports = append(out.Reports, rep)
				if spans != nil && r == 0 {
					traces[w.Name] = spans
				}
			}
		}
	}
	out.summarize()
	out.print(os.Stdout)
	if err := writeJSON(filepath.Join(resultsDir, label+".json"), out); err != nil {
		return err
	}
	if len(traces) > 0 {
		return writeJSON(filepath.Join(resultsDir, label+".trace.json"), traces)
	}
	return nil
}

// runChild executes one run in a child process and returns its report
// and, for a traced run, its span file's contents.
func runChild(self string, cfg config) (*report, json.RawMessage, error) {
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dataRoot, "all-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	reportPath, tracePath := filepath.Join(tmp, "report.json"), filepath.Join(tmp, "trace.json")
	args := []string{
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-dir", cfg.dataRoot, "-report", reportPath, "-trace-out", tracePath, "-trace", "0",
	}
	if cfg.trace {
		args[len(args)-1] = "1"
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	fmt.Fprintf(os.Stderr, "== %s seed %d trace %v\n", cfg.workload, cfg.seed, cfg.trace)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to end
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, nil, err
	}
	var spans json.RawMessage
	if cfg.trace {
		if spans, err = os.ReadFile(tracePath); err != nil {
			return nil, nil, err
		}
	}
	return rep, spans, nil
}

// summarize fills Summary from Reports. A workload's metrics are noisy
// when the noise guard marked more than half of the runs behind them.
func (rf *resultsFile) summarize() {
	rf.Summary = map[string]map[string]summary{}
	type pass struct {
		workload string
		traced   bool
	}
	runs, noisy := map[pass]int{}, map[pass]int{}
	for _, rep := range rf.Reports {
		runs[pass{rep.Workload, rep.Trace}]++
		if rep.Noisy {
			noisy[pass{rep.Workload, rep.Trace}]++
		}
	}
	for _, rep := range rf.Reports {
		byMetric := rf.Summary[rep.Workload]
		if byMetric == nil {
			byMetric = map[string]summary{}
			rf.Summary[rep.Workload] = byMetric
		}
		for name, m := range rep.Result.Metrics {
			s := byMetric[name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			s.Noisy = 2*noisy[pass{rep.Workload, rep.Trace}] > runs[pass{rep.Workload, rep.Trace}]
			byMetric[name] = s
		}
	}
	for _, rep := range rf.Reports {
		rep.Result.Metrics = nil
	}
	for _, byMetric := range rf.Summary {
		for name, s := range byMetric {
			s.Median, s.Spread = median(s.Values), spreadShare(s.Values)
			byMetric[name] = s
		}
		untraced, traced := byMetric["ops_per_s"], byMetric["trace.ops_per_s"]
		if untraced.Median > 0 && len(traced.Values) > 0 {
			byMetric["trace.overhead_share"] = summary{Median: 1 - traced.Median/untraced.Median, Unit: "ratio", Noisy: untraced.Noisy || traced.Noisy}
		}
	}
}

// print writes the summary table: every workload, every metric by name
// with its unit, its run-to-run spread, and the run count behind it.
func (rf *resultsFile) print(w *os.File) {
	fmt.Fprintf(w, "results %s: seed %d, %g s measured, %d run(s) per workload\n", rf.Label, rf.Seed, rf.Seconds, rf.Runs)
	m := rf.Machine
	fmt.Fprintf(w, "machine: %s, %d cpu (GOMAXPROCS %d), %s, caches %s, data on %s\n", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Caches, m.DataDirFS)
	fmt.Fprintf(w, "note: %s\n", m.Note)
	failed := 0
	for _, rep := range rf.Reports {
		failed += rep.Result.Failed
	}
	for _, ws := range everyWorkload() {
		byMetric := rf.Summary[ws.Name]
		fmt.Fprintf(w, "\n%s\n", ws.Name)
		for _, specs := range [][]metricSpec{endToEnd, perLayer, {{Name: "trace.overhead_share"}}} {
			for _, spec := range specs {
				s, ok := byMetric[spec.Name]
				if !ok {
					continue
				}
				noisy := ""
				if s.Noisy {
					noisy = "  noisy"
				}
				fmt.Fprintf(w, "  %-36s %14.4f %-9s spread %5.1f%%  runs %d%s\n", spec.Name, s.Median, s.Unit, 100*s.Spread, len(s.Values), noisy)
			}
		}
	}
	fmt.Fprintf(w, "\nfailed operations: %d\n", failed)
}
