package main

// The algo_* workloads: the 12-algorithm suite through
// Engine.RunAlgorithm on one stored graph, in three representations. No
// server, WAL or router is involved; traverse and algos do all the work.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"sage"
	"sage/internal/refalgo"
)

type algoVariant int

const (
	variantCSR    algoVariant = iota // flat zero-copy slices over the mmap'd container
	variantByte64                    // byte-compressed container, block size 64
	variantDelta                     // CSR base plus an overlay of m/1000 inserted edges
)

// algoInstance is one opened graph ready for the suite.
type algoInstance struct {
	path   string
	stored *sage.Graph    // the opened container
	snap   *sage.Snapshot // variantDelta only
	h      *sage.Graph    // what the algorithms run on
}

func (a *algoInstance) close() {
	if a.stored != nil {
		_ = a.stored.Close()
	}
}

func runAlgo(rc *runCtx, variant algoVariant) error {
	in, err := makeGraph(rc.sc.algoLogN, rc.cfg.seed)
	if err != nil {
		return err
	}
	var inserts []sage.EdgeOp
	if variant == variantDelta {
		rng := rand.New(rand.NewSource(int64(rc.cfg.seed) + 1))
		inserts = in.nonEdges(rng, int(in.g.NumEdges()/1000))
	}
	eng := sage.NewEngine()
	ctx := context.Background()

	// Set-up: write the container, open it memory-mapped, apply the
	// overlay, and answer one BFS (which also pages the file in).
	inst, err := setUp(rc, func(dir string) (*algoInstance, error) {
		a := &algoInstance{path: filepath.Join(dir, "web.sg")}
		src := in.g
		if variant == variantByte64 {
			src = in.g.Compress(64)
		}
		if err := sage.Create(a.path, src); err != nil {
			return a, err
		}
		if a.stored, err = sage.Open(a.path); err != nil {
			return a, err
		}
		a.h = a.stored
		if variant == variantDelta {
			if a.snap, err = a.stored.Snapshot().ApplyBatch(inserts); err != nil {
				return a, err
			}
			a.h = a.snap.Graph()
		}
		_, err := eng.RunAlgorithm(ctx, "bfs", a.h, sage.AlgoArgs{})
		return a, err
	}, (*algoInstance).close)
	if err != nil {
		return err
	}
	defer inst.close()

	// Measured phase: whole passes over the suite until the clock runs
	// out, the first pass always completing. A traced run makes exactly
	// one pass, which also runs the algorithms left out of the end-to-end
	// figures (ungated), and spends the rest of its time on the layer
	// probes.
	dur := rc.measureFor()
	if rc.cfg.trace {
		dur = 0
	}
	settle()
	sb := rc.tr.buf()
	ms := make([][]float64, len(suite))
	kb := make([][]float64, len(suite))
	first := make([]*sage.AlgoResult, len(suite))
	var m0, m1 runtime.MemStats
	start := time.Now()
measure:
	for pass := 0; ; pass++ {
		for i, name := range suite {
			if pass > 0 && time.Since(start) >= dur {
				break measure
			}
			if ungated[name] && !rc.cfg.trace {
				continue
			}
			runtime.ReadMemStats(&m0)
			si := sb.begin("algos."+name, 0, int64(pass))
			t := time.Now()
			res, err := eng.RunAlgorithm(ctx, name, inst.h, sage.AlgoArgs{})
			d := time.Since(t)
			sb.end(si)
			runtime.ReadMemStats(&m1)
			rc.out.attempted++
			if err != nil {
				rc.out.fail("%s: %v", name, err)
				continue
			}
			ms[i] = append(ms[i], float64(d.Nanoseconds())/1e6)
			kb[i] = append(kb[i], float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			if res.Stats.NVRAMWrites != 0 {
				rc.out.fail("%s wrote %d NVRAM words", name, res.Stats.NVRAMWrites)
			}
			if first[i] == nil {
				first[i] = res
			} else if res.Summary != first[i].Summary {
				rc.out.fail("%s: summary %q differs from the first pass's %q", name, res.Summary, first[i].Summary)
			}
		}
	}
	rss := peakRSSMB()

	var suiteMS, slowestMS, suiteKB float64
	runs, gated := 0, 0
	for i, name := range suite {
		if len(ms[i]) == 0 {
			if ungated[name] && !rc.cfg.trace {
				continue
			}
			return fmt.Errorf("%s never completed", name)
		}
		med := median(ms[i])
		rc.out.setN("algos."+name+"_ms", med, len(ms[i]))
		rc.out.note("%-12s %9.2f ms  %10.0f KB allocated", name, med, median(kb[i]))
		rc.out.set("psam.cost."+name, float64(first[i].Stats.PSAMCost))
		if predicted, err := eng.PredictCost(name, inst.h); err == nil {
			if actual := eng.CostOfStats(first[i].Stats).Cost; actual > 0 {
				rc.out.set("costmodel.predict_ratio."+name, float64(predicted.Cost)/float64(actual))
			}
		}
		if ungated[name] {
			continue
		}
		gated++
		suiteMS += med
		slowestMS = max(slowestMS, med)
		suiteKB += median(kb[i])
		runs += len(ms[i])
	}
	// The suite's time to solution is the sum of each gated algorithm's
	// median, so a partial last pass adds samples without changing what is
	// summed.
	rc.out.setN("p50_ms", suiteMS, runs)
	rc.out.setN("tail_ms", slowestMS, runs)
	rc.out.set("ops_per_s", float64(gated)/(suiteMS/1e3))
	rc.out.set("alloc_kb_per_op", suiteKB/float64(gated))
	rc.out.set("peak_rss_mb", rss)
	rc.out.set("trace.ops_per_s", float64(gated)/(suiteMS/1e3))

	checkSuite(rc, in, inst, first)
	if rc.cfg.trace {
		return probeGraph(rc, in, inst, eng)
	}
	return nil
}

// checkSuite validates the first pass's results against internal/refalgo
// on a reference CSR: the generated graph itself, or for the overlay its
// materialization.
func checkSuite(rc *runCtx, in *graphInput, inst *algoInstance, first []*sage.AlgoResult) {
	ref := in.g.RawCSR()
	if inst.snap != nil {
		ref = inst.snap.Materialize().RawCSR()
	}
	check := func(name string, validate func(value any) error) {
		for i := range suite {
			if suite[i] == name && first[i] != nil {
				rc.out.attempted++
				if err := validate(first[i].Value); err != nil {
					rc.out.fail("%s: %v", name, err)
				}
			}
		}
	}
	check("bfs", func(v any) error { return validateBFS(ref, 0, v.([]uint32)) })
	check("wbfs", func(v any) error { return validateWBFS(ref, 0, v.([]uint32)) })
	check("cc", func(v any) error {
		if !refalgo.SameComponents(v.([]uint32), refalgo.Components(ref, 0)) {
			return fmt.Errorf("labels disagree with the reference components")
		}
		return nil
	})
}
