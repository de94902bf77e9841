package harness

// Workload caching through the dataset layer: regenerating the R-MAT
// workload dominates short benchmark runs, so the harness can persist the
// three workload graphs in the v2 binary container and reopen them
// memory-mapped on subsequent runs — the graphs are then consumed in
// place from storage, which is the system configuration the paper
// benchmarks in the first place (graph on NVRAM, state in DRAM).
//
// The opened datasets are held in the shared store.Cache — the same
// refcounted cache the serving layer's catalog uses — so repeated
// NewWorkload calls at one scale share a single mapping.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/store"
)

var cacheMu sync.Mutex
var cacheDir string
var datasetCache = store.NewCache(0) // unlimited: benchmarks pin their workloads
var cacheHeld []*store.Handle

// SetWorkloadCache points NewWorkload at a directory of persisted
// workloads (creating it if needed). An empty dir disables caching.
// Datasets opened from the cache stay mapped until CloseWorkloadCache.
func SetWorkloadCache(dir string) error {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	cacheDir = dir
	return nil
}

// CloseWorkloadCache releases every mapping the cache handed out. The
// workloads obtained from cached NewWorkload calls are invalid afterwards.
func CloseWorkloadCache() error {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for _, h := range cacheHeld {
		h.Release()
	}
	cacheHeld = nil
	return datasetCache.Clear()
}

// cachedWorkload loads (or builds and best-effort persists) the workload
// for scale.
func cachedWorkload(scale int, dir string) *Workload {
	names := []string{"g", "wg", "setcover"}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, fmt.Sprintf("rmat-s%d-%s.sg", scale, name))
	}
	graphs := make([]*graph.Graph, len(names))
	var held []*store.Handle
	hit := true
	for i, p := range paths {
		h, err := datasetCache.Acquire(p, store.OpenOptions{})
		if err != nil {
			hit = false
			break
		}
		if h.Dataset().CSR() == nil {
			h.Release()
			hit = false
			break
		}
		held = append(held, h)
		graphs[i] = h.Dataset().CSR()
	}
	if hit {
		cacheMu.Lock()
		cacheHeld = append(cacheHeld, held...)
		cacheMu.Unlock()
		return &Workload{Scale: scale, G: graphs[0], WG: graphs[1],
			SetCover: graphs[2], NumSets: graphs[0].NumVertices()}
	}
	for _, h := range held {
		h.Release()
	}
	// Best-effort: drop idle mappings of these paths before the files
	// are rewritten below. Entries another goroutine still references
	// survive (store.Create replaces the path by rename, so a live
	// mapping keeps the old inode — never corruption), and a stale hit
	// on such an entry is harmless because the workload content is
	// deterministic in (scale, seed): old and new bytes are identical.
	for _, p := range paths {
		datasetCache.Evict(p)
	}
	// Miss: build in memory and persist for the next run. Persisting is
	// best-effort — the workload was just generated at full cost, so a
	// cache-write failure (read-only dir, full disk) must not throw it
	// away and force a second generation.
	g := gen.RMAT(scale, 16, 0x5a6e+uint64(scale))
	wg := gen.AddUniformWeights(g, 77)
	sc, ns := SetCoverInstance(g)
	for i, gr := range []*graph.Graph{g, wg, sc} {
		if err := store.Create(nil, paths[i], store.Encoding(gr, 0), store.FormatBinary); err != nil {
			break // a partial cache is fine: the next run re-misses
		}
	}
	return &Workload{Scale: scale, G: g, WG: wg, SetCover: sc, NumSets: ns}
}
