package main

// One run: one workload, one seed, one metric set. run() owns what every
// workload shares — the private data directory, the noise guard, the
// repeated timed set-up, and rendering the outcome as the result line.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	dataRoot string // data directories are created (and removed) under it
	report   string // optional path for the detailed JSON report
	traceOut string // span file path (traced runs)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run knows, written to -report for the
// all-workloads mode and -compare to read.
type report struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Smoke    bool        `json:"smoke,omitempty"`
	Machine  machineInfo `json:"machine"`
	// FsyncUS is the measured cost of one 64-byte append+fsync on the
	// data directory.
	FsyncUS float64 `json:"fsync_us"`
	// SpinMops are the noise guard's two readings; Noisy is set when they
	// differ by more than 10%.
	SpinMops [2]float64 `json:"spin_mops"`
	Noisy    bool       `json:"noisy"`
	// Samples is the sample count behind each timing.
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`
	Result  result         `json:"result"`
}

// outcome collects what a workload measured.
type outcome struct {
	values    map[string]float64 // metric name -> value, both metric sets
	samples   map[string]int
	attempted int
	failed    int
	notes     []string
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setN records a timing together with the number of samples behind it.
func (o *outcome) setN(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

// maxNotes bounds the failure notes a broken run prints.
const maxNotes = 20

// fail counts one failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < maxNotes {
		o.notes = append(o.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// runCtx is what a workload function works with.
type runCtx struct {
	cfg config
	sc  scale
	dir string  // this run's private data directory
	tr  *tracer // nil in the untraced pass
	out *outcome
	// started is when the workload function was entered: what it does
	// before calling setUp is making its inputs.
	started time.Time
	// spinBefore is the noise guard's first reading, taken when set-up
	// begins: input generation has kept the CPU busy for a second by then,
	// and a CPU fresh out of idle runs the loop a quarter fast for a while.
	spinBefore float64
}

// measureFor is how long the measured phase lasts. A traced run spends
// half its time on the traced pass and the rest on the layer probes.
func (rc *runCtx) measureFor() time.Duration {
	d := time.Duration(rc.cfg.seconds * float64(time.Second))
	if rc.cfg.trace {
		d /= 2
	}
	return d
}

// clients is the closed-loop client count: one per CPU, because this
// system's callers (pipelines, dashboards) each wait for their reply.
func clients() int { return runtime.GOMAXPROCS(0) }

// workloads maps each declared workload to its implementation.
var workloads = map[string]func(*runCtx) error{
	"algo_csr":      func(rc *runCtx) error { return runAlgo(rc, variantCSR) },
	"algo_byte64":   func(rc *runCtx) error { return runAlgo(rc, variantByte64) },
	"algo_delta":    func(rc *runCtx) error { return runAlgo(rc, variantDelta) },
	"serve_miss":    runServeMiss,
	"serve_hit":     runServeHit,
	"serve_update":  runServeUpdate,
	"cluster_route": runClusterRoute,
}

// setUp runs build rc.sc.setups times, each in a fresh directory and each
// after the previous instance was torn down (untimed). The last instance
// is what the run measures. setup_s is the time the workload spent making
// its inputs plus the median build: everything between starting the
// benchmark and being able to measure, with the part that belongs to the
// program under test repeated, because that part writes and fsyncs
// containers and one reading of a shared disk says little. build returns
// whatever it had built when it failed, for teardown.
func setUp[T any](rc *runCtx, build func(dir string) (T, error), teardown func(T)) (T, error) {
	var inst T
	var secs []float64
	inputs := time.Since(rc.started).Seconds()
	rc.spinBefore = spinMops()
	for k := 0; k < rc.sc.setups; k++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("setup%d", k))
		if k > 0 {
			teardown(inst)
			if err := os.RemoveAll(filepath.Join(rc.dir, fmt.Sprintf("setup%d", k-1))); err != nil {
				return inst, err
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return inst, err
		}
		start := time.Now()
		var err error
		if inst, err = build(dir); err != nil {
			teardown(inst)
			return inst, fmt.Errorf("set-up %d: %w", k, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	rc.out.setN("setup_s", inputs+median(secs), len(secs))
	return inst, nil
}

// run executes one workload and returns its report.
func run(cfg config) (*report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataRoot, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{cfg: cfg, sc: fullScale, dir: dir,
		out: &outcome{values: map[string]float64{}, samples: map[string]int{}}}
	if cfg.smoke {
		rc.sc = smokeScale
	}
	if cfg.trace {
		rc.tr = newTracer()
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Smoke: cfg.smoke, Machine: machine(dir)}
	if rep.FsyncUS, err = fsyncProbeUS(dir, 64); err != nil {
		return nil, err
	}

	rc.started = time.Now()
	if err := fn(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.SpinMops = [2]float64{rc.spinBefore, spinMops()}
	lo, hi := math.Min(rep.SpinMops[0], rep.SpinMops[1]), math.Max(rep.SpinMops[0], rep.SpinMops[1])
	rep.Noisy = (hi-lo)/hi > 0.10

	if cfg.trace {
		rc.out.set("process.spin_mops", lo)
		rc.out.set("trace.spans", float64(len(rc.tr.all())))
		if cfg.traceOut != "" {
			if err := rc.tr.write(cfg.traceOut, cfg.workload, cfg.seed); err != nil {
				return nil, err
			}
		}
	}
	rep.Samples, rep.Notes = rc.out.samples, rc.out.notes
	if rep.Result, err = rc.out.result(cfg.trace); err != nil {
		return nil, err
	}
	return rep, nil
}

// result renders the outcome as the contract's result object: every
// end-to-end metric (untraced) or every per-layer metric (traced). A
// per-layer metric the workload's layers never produced reads 0 — the
// layer did no work in this workload; an end-to-end metric must have
// been measured.
func (o *outcome) result(traced bool) (result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		v, ok := o.values[s.Name]
		if !traced && (!ok || v <= 0) {
			return res, fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// print writes the human-readable form of a report: every metric by
// name with its unit and, for timings, the sample count behind it.
func (rep *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	m := rep.Machine
	fmt.Fprintf(w, "machine: %s, %d cpu (GOMAXPROCS %d), %s, caches %s\n", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Caches)
	fmt.Fprintf(w, "data dir: %s on %s, one 64 B append+fsync costs %.0f us\n", m.DataDir, m.DataDirFS, rep.FsyncUS)
	fmt.Fprintf(w, "note: %s\n", m.Note)
	fmt.Fprintf(w, "noise guard: spin %.0f -> %.0f Mops/s, noisy=%v\n", rep.SpinMops[0], rep.SpinMops[1], rep.Noisy)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rep.Result.Metrics[name]
		if n, ok := rep.Samples[name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %-9s n=%d\n", name, mv.Value, mv.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, mv.Value, mv.Unit)
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
}
