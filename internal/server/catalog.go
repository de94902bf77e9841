package server

// The dataset catalog: a fixed set of named stored graphs, one record
// each, opened lazily through the shared store.Cache on first request and
// shared — usually as one memory mapping — across every concurrent run
// that names them. The cache's word budget bounds how many datasets stay
// resident; idle ones are LRU-evicted and transparently reopened when
// named again. Refcounting guarantees a dataset is never unmapped under a
// run in flight.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"sage"
	"sage/internal/store"
)

// errUnknownDataset distinguishes a 404 from an open failure (500).
var errUnknownDataset = errors.New("unknown dataset")

// dataset is one registered dataset: its name and stored path, fixed at
// registration, and everything mutable about what it serves. The mapping
// of the stored file is read-only and lives in the catalog's cache; the
// rest lives here, guarded by updates.mu.
type dataset struct {
	name, path string
	// learned needs no lock (see estimates) and outlives every update,
	// compaction and eviction.
	learned estimates

	// gen is the generation results are keyed by: 1 at registration, +1
	// per published commit window and per compaction, raised to a
	// replica's floor on request. Evicting and reopening the mapping
	// leaves it alone — while the server runs, only its own compaction
	// rewrites the file, and that bumps gen itself.
	gen uint64
	// version is the current overlay snapshot; nil while the dataset
	// serves its plain base.
	version *snapVersion
	// The committer role: the writer that set busy holds it until it
	// clears it or hands it on, and is meanwhile the only one that extends
	// the dataset's newest state or calls its log.
	busy  bool
	queue []*writeReq // waiting for the role holder, oldest first
	// ws is the durability state; recovered is set once the first commit
	// has replayed the log (or failed to), so reads stop asking for it.
	ws        walState
	recovered bool
	// disarmed is the auto-compaction hysteresis state: set when the
	// trigger fires, cleared once the overhead falls below the low-water
	// mark or the overlay is gone.
	disarmed bool
}

type catalog struct {
	mu       sync.Mutex
	datasets map[string]*dataset // name -> record
	cache    *store.Cache
	opts     store.OpenOptions
}

func newCatalog(budgetWords int64, copyOpen bool) *catalog {
	return &catalog{
		datasets: map[string]*dataset{},
		cache:    store.NewCache(budgetWords),
		opts:     store.OpenOptions{Copy: copyOpen},
	}
}

// add registers name -> path. The file must exist now (catching typos at
// startup), but it is decoded lazily on first request.
func (c *catalog) add(name, path string) error {
	if name == "" {
		return fmt.Errorf("empty dataset name")
	}
	for _, r := range name {
		if r == '/' || r == '?' || r == '#' || r == '%' {
			return fmt.Errorf("dataset name %q: %q not allowed (names are URL path segments)", name, r)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("dataset %q: %w", name, err)
	}
	if info.IsDir() {
		return fmt.Errorf("dataset %q: %s is a directory", name, path)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.datasets[name]; dup {
		return fmt.Errorf("dataset %q registered twice", name)
	}
	c.datasets[name] = &dataset{name: name, path: path, gen: 1, learned: newEstimates()}
	return nil
}

// estimates is one dataset's learned run profile: per registry
// algorithm, the float64 bits of an EWMA of log(actual cost / (n + m))
// over its successful runs — a log, so one run r times off moves it by
// at most r^(1/ewmaDiv) — and of the largest PeakDRAMWords / (n + m),
// since a gate wants an upper estimate and peaks spread with the source
// and the worker interleaving. A cost is unseen before the first run, a
// peak 0. The map is never written after registration, so reads take no
// lock; slots update by CAS.
type estimates map[string]*estimate

type estimate struct{ cost, peak atomic.Uint64 }

const unseen = ^uint64(0) // a NaN, which no mean of finite logs can take

func newEstimates() estimates {
	names := sage.AlgorithmNames()
	e := make(estimates, len(names))
	for _, name := range names {
		e[name] = new(estimate)
		e[name].cost.Store(unseen)
	}
	return e
}

// graphSize is the (n + m) an estimate is per, at least 1.
func graphSize(g *sage.Graph) float64 {
	return max(float64(g.NumVertices())+float64(g.NumEdges()), 1)
}

// predict returns the learned cost and peak DRAM words of registry
// algorithm algo on g, each falling back to its seed — eng.PredictCost,
// and sage.EstimateDRAMWords — until algo has run on this dataset.
func (e estimates) predict(algo string, g *sage.Graph, eng *sage.Engine) (cost, words int64) {
	slot := e[algo]
	if bits := slot.cost.Load(); bits != unseen {
		cost = int64(math.Round(math.Exp(math.Float64frombits(bits)) * graphSize(g)))
	} else {
		est, _ := eng.PredictCost(algo, g) // algo is a registry name
		cost = est.Cost
	}
	if bits := slot.peak.Load(); bits != 0 {
		return cost, int64(math.Round(math.Float64frombits(bits) * graphSize(g)))
	}
	words, _ = sage.EstimateDRAMWords(algo, g)
	return cost, words
}

// observe folds one successful run of algo on g, its actual cost and
// its peak DRAM words, into the dataset's estimates.
func (e estimates) observe(algo string, g *sage.Graph, cost, peakWords int64) {
	slot := e[algo]
	x := math.Log(float64(max(cost, 1)) / graphSize(g))
	for {
		old, next := slot.cost.Load(), x
		if old != unseen {
			mean := math.Float64frombits(old)
			next = mean + (x-mean)/ewmaDiv
		}
		if slot.cost.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	// Positive float64s order as their bits do.
	p := math.Float64bits(float64(max(peakWords, 1)) / graphSize(g))
	for {
		if old := slot.peak.Load(); old >= p || slot.peak.CompareAndSwap(old, p) {
			return
		}
	}
}

// perSize maps every algorithm that has run on the dataset to its
// learned cost and peak words per (n + m).
func (e estimates) perSize() (cost, peak map[string]float64) {
	cost, peak = map[string]float64{}, map[string]float64{}
	for name, slot := range e {
		if bits := slot.cost.Load(); bits != unseen {
			cost[name] = math.Exp(math.Float64frombits(bits))
		}
		if bits := slot.peak.Load(); bits != 0 {
			peak[name] = math.Float64frombits(bits)
		}
	}
	return cost, peak
}

// all returns every registered record, sorted by name.
func (c *catalog) all() []*dataset {
	c.mu.Lock()
	out := make([]*dataset, 0, len(c.datasets))
	for _, d := range c.datasets {
		out = append(out, d)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// lookup resolves a dataset name to its record.
func (c *catalog) lookup(name string) (*dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownDataset, name)
	}
	return d, nil
}

// acquire returns a refcounted handle on d's stored base, opening it if
// needed. The caller must Release it when the run completes.
func (c *catalog) acquire(d *dataset) (*store.Handle, error) {
	return c.cache.Acquire(d.path, c.opts)
}

// datasetInfo is one /v1/datasets entry. The graph-shape fields are
// populated only for datasets currently open — listing never forces a
// lazy open.
type datasetInfo struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Open       bool   `json:"open"`
	Generation uint64 `json:"generation,omitempty"`
	Vertices   uint32 `json:"vertices,omitempty"`
	Edges      uint64 `json:"edges,omitempty"`
	Weighted   bool   `json:"weighted,omitempty"`
	Compressed bool   `json:"compressed,omitempty"`
	Mapped     bool   `json:"mapped,omitempty"`
	SizeWords  int64  `json:"size_words,omitempty"`
	// The update-overlay fields are present when the dataset has live
	// batch updates; Generation and Edges then describe the current
	// snapshot rather than the stored base.
	DeltaWords       int64  `json:"delta_words,omitempty"`
	DeltaArcsAdded   uint64 `json:"delta_arcs_added,omitempty"`
	DeltaArcsDeleted uint64 `json:"delta_arcs_deleted,omitempty"`
	// OverlayCostPredicted is the overlay's predicted traversal overhead
	// under the serving engine's cost model — the quantity the
	// auto-compaction hysteresis tracks.
	OverlayCostPredicted int64 `json:"overlay_cost_predicted,omitempty"`
	// ReadOnly reports the WAL-unavailable degraded state: reads keep
	// serving, writes answer 503 until the log heals.
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
}

// info describes d's stored base for a listing, its graph shape only
// when it is open: listing never forces a lazy open.
func (c *catalog) info(d *dataset) datasetInfo {
	info := datasetInfo{Name: d.name, Path: d.path}
	if h, ok := c.cache.AcquireCached(d.path); ok {
		ds := h.Dataset()
		info.Open = true
		info.Vertices = ds.Adj().NumVertices()
		info.Edges = ds.Adj().NumEdges()
		info.Weighted = ds.Adj().Weighted()
		info.Compressed = ds.CSR() == nil
		info.Mapped = ds.Mapped()
		info.SizeWords = ds.SizeWords()
		h.Release()
	}
	return info
}

// estimates is the /metrics view: dataset -> perSize, for cost and for
// peak DRAM words.
func (c *catalog) estimates() (cost, peak map[string]map[string]float64) {
	cost, peak = map[string]map[string]float64{}, map[string]map[string]float64{}
	for _, d := range c.all() {
		cost[d.name], peak[d.name] = d.learned.perSize()
	}
	return cost, peak
}

// close releases every idle dataset.
func (c *catalog) close() error { return c.cache.Clear() }

// cacheInfo exposes the dataset cache counters for /metrics.
func (c *catalog) cacheInfo() store.CacheInfo { return c.cache.Info() }
