// Package server implements sage-serve: a long-lived HTTP service that
// keeps a catalog of stored graphs resident (mmap-shared, in the spirit
// of semi-external engines like FlashGraph/Graphyti — the graph lives on
// cheap storage, queries touch it in place) and exposes every registry
// algorithm as a request endpoint.
//
// Request model: each POST /v1/run/{dataset}/{algo} becomes one Engine
// Run — private PSAM counters, cancellation wired to the HTTP request
// context, totals merged into the server engine's aggregate that
// /metrics surfaces. Before a run starts it must pass admission's three
// gates: a semaphore bounding concurrent runs, a DRAM-word budget
// bounding the summed small-memory residency of everything in flight
// (the aggregate form of Sage's per-run small-memory bound), and a cost
// budget bounding the summed predicted cost under the engine's cost
// model; overload is shed with 429 + Retry-After. Identical repeat queries are answered from an LRU
// result cache keyed by (dataset generation, algorithm, canonicalized
// args).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sage"
)

// Config configures New. The zero value serves with an AppDirect engine,
// GOMAXPROCS concurrent runs, and no budgets.
type Config struct {
	// Engine runs the algorithms; nil builds sage.NewEngine() defaults.
	Engine *sage.Engine
	// MaxConcurrent bounds runs in flight (<= 0: GOMAXPROCS).
	MaxConcurrent int
	// DRAMBudgetWords caps the summed estimated DRAM residency of
	// concurrent runs in simulated words (0: unlimited).
	DRAMBudgetWords int64
	// CostBudget caps the summed predicted cost of concurrent runs in the
	// engine model's DRAM-access units (sage.Engine.PredictCost); the
	// overflowing run is shed with 429 + Retry-After, gate "cost"
	// (0: unlimited).
	CostBudget int64
	// AutoCompactCost enables cost-driven auto-compaction: when a batch
	// leaves a dataset's predicted overlay traversal overhead (under the
	// engine's cost model) at or above this many DRAM-access units, the
	// overlay is folded into the base as if the client had requested
	// compact. Hysteresis re-arms the trigger only after the overhead
	// falls below half the threshold (0: disabled).
	AutoCompactCost int64
	// DatasetBudgetWords caps the summed SizeWords of resident datasets;
	// idle ones beyond it are LRU-evicted (0: unlimited).
	DatasetBudgetWords int64
	// ResultCacheEntries sizes the result cache (0: default 256; < 0:
	// disabled).
	ResultCacheEntries int
	// ResultCacheBytes caps the summed marshaled size of cached
	// responses (0: default 64 MiB). Responses bigger than a quarter of
	// the budget are never cached.
	ResultCacheBytes int64
	// DeltaBudgetWords caps each dataset's update-overlay DRAM footprint
	// in simulated words; a batch that would exceed it is rejected with
	// 507 until a compaction folds the overlay into the base (0:
	// unlimited).
	DeltaBudgetWords int64
	// QueueWait is how long an arriving run may wait for a concurrency
	// slot before being shed (0: shed immediately).
	QueueWait time.Duration
	// MaxRunDuration bounds a single run's execution; exceeding it
	// cancels the run and answers 504 (0: unbounded).
	MaxRunDuration time.Duration
	// CopyDatasets opens datasets into private heap memory instead of
	// memory-mapping them.
	CopyDatasets bool
	// Durability configures the per-dataset write-ahead log: update
	// batches are logged (and fsynced per policy) before their overlay
	// becomes visible, and replayed onto the stored base at startup. The
	// zero value disables it. See durability.go.
	Durability Durability
}

// Server is the sage-serve HTTP handler. Create with New, register
// datasets with AddDataset, then serve it.
type Server struct {
	engine  *sage.Engine
	catalog *catalog
	adm     *admission
	results *LRU[cachedResult]
	updates *updates
	maxRun  time.Duration
	mux     *http.ServeMux
	started time.Time

	// ready flips true once startup WAL replay (Recover) has finished;
	// draining flips true when graceful shutdown begins. Both are served
	// by /readyz so load balancers route around a starting or stopping
	// replica while /healthz keeps reporting liveness.
	ready    atomic.Bool
	draining atomic.Bool

	runsStarted   atomic.Int64
	runsOK        atomic.Int64
	runsFailed    atomic.Int64
	runsCancelled atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	engine := cfg.Engine
	if engine == nil {
		engine = sage.NewEngine()
	}
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = runtime.GOMAXPROCS(0)
	}
	cacheEntries := cfg.ResultCacheEntries
	if cacheEntries == 0 {
		cacheEntries = 256
	}
	s := &Server{
		engine:  engine,
		catalog: newCatalog(cfg.DatasetBudgetWords, cfg.CopyDatasets),
		adm:     newAdmission(maxConc, cfg.DRAMBudgetWords, cfg.CostBudget, cfg.QueueWait),
		results: NewLRU[cachedResult](cacheEntries, cfg.ResultCacheBytes),
		maxRun:  cfg.MaxRunDuration,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.updates = newUpdates(s.catalog, cfg.DeltaBudgetWords, cfg.Durability, engine.Model(), cfg.AutoCompactCost)
	// Without a WAL there is nothing to replay, so the server is ready the
	// moment it exists; with one, readiness waits for Recover.
	s.ready.Store(!cfg.Durability.Enabled)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/run/{dataset}/{algo}", s.handleRun)
	s.mux.HandleFunc("POST /v1/update/{dataset}", s.handleUpdate)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// AddDataset registers a stored graph under name. The file must exist;
// it is opened lazily on first request.
func (s *Server) AddDataset(name, path string) error { return s.catalog.add(name, path) }

// Preload opens the named dataset through the serving catalog now, so
// the first query finds it resident (and a corrupt file fails startup
// instead of a request). The dataset stays cached under the usual LRU
// budget rules.
func (s *Server) Preload(name string) error {
	h, err := s.catalog.acquire(name)
	if err != nil {
		return err
	}
	h.Release()
	return nil
}

// Recover replays every registered dataset's surviving write-ahead
// records onto its stored base and marks the server ready. Call it after
// the datasets are registered and before routing traffic (requests
// arriving earlier are still served correctly — the first touch of a
// dataset replays it lazily — but /readyz answers 503 until Recover
// completes). It returns the number of batches replayed and the names of
// datasets left read-only because their log could not be opened.
func (s *Server) Recover() (replayed int, degraded []string) {
	for _, name := range s.catalog.names() {
		s.updates.ensureRecovered(name)
	}
	for _, name := range s.catalog.names() {
		if ro, _ := s.updates.walInfo(name); ro {
			degraded = append(degraded, name)
		}
	}
	s.ready.Store(true)
	return int(s.updates.walReplayed.Load()), degraded
}

// BeginDrain marks the server draining: /readyz answers 503 so load
// balancers stop routing new work, while in-flight requests (and reads
// from clients that already resolved this replica) keep being served.
// Call it before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drops every update overlay, closes every WAL, and
// releases every idle resident dataset. Call after the HTTP server has
// shut down (no runs in flight).
func (s *Server) Close() error {
	uerr := s.updates.close()
	if cerr := s.catalog.close(); uerr == nil {
		uerr = cerr
	}
	return uerr
}

// ServeHTTP dispatches to the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// --------------------------------------------------------------------
// Responses.
// --------------------------------------------------------------------

// runStats is the JSON rendering of a run's PSAM accounting.
type runStats struct {
	PSAMCost      int64 `json:"psam_cost"`
	NVRAMReads    int64 `json:"nvram_reads"`
	NVRAMWrites   int64 `json:"nvram_writes"`
	DRAMReads     int64 `json:"dram_reads"`
	DRAMWrites    int64 `json:"dram_writes"`
	CacheHits     int64 `json:"cache_hits,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`
	PeakDRAMWords int64 `json:"peak_dram_words"`
}

func statsJSON(s sage.RunStats) runStats {
	return runStats{
		PSAMCost:      s.PSAMCost,
		NVRAMReads:    s.NVRAMReads,
		NVRAMWrites:   s.NVRAMWrites,
		DRAMReads:     s.DRAMReads,
		DRAMWrites:    s.DRAMWrites,
		CacheHits:     s.CacheHits,
		CacheMisses:   s.CacheMisses,
		PeakDRAMWords: s.PeakDRAMWords,
	}
}

// runResponse is the run endpoint's body. Value holds the algorithm's
// raw output (pass ?value=false to omit it for large graphs). Whether
// the answer came from the result cache is reported in the X-Sage-Cache
// response header (hit/miss), keeping hit and miss bodies byte-identical
// so cached bodies are written verbatim without re-marshaling.
type runResponse struct {
	Dataset    string        `json:"dataset"`
	Generation uint64        `json:"generation"`
	Algo       string        `json:"algo"`
	Args       sage.AlgoArgs `json:"args"`
	Summary    string        `json:"summary"`
	Value      any           `json:"value,omitempty"`
	Stats      runStats      `json:"stats"`
	ElapsedMS  float64       `json:"elapsed_ms"`
}

// WriteJSON writes v as a JSON response with the given status. The
// cluster router answers through it too, so both tiers fail the same way
// on a value that cannot be serialized.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the header: an unserializable value (e.g.
	// a result holding ±Inf) must surface as a 500, not as a 200 with an
	// empty body.
	body, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"response not serializable"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n')) // a failed write means the client is gone
}

// writeJSONBytes writes an already-marshaled body (the result cache's
// stored form).
func writeJSONBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	w.Write([]byte{'\n'})
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeErrorReason adds a machine-readable reason field ("read_only",
// "draining", ...) so clients can branch without parsing the human text.
func writeErrorReason(w http.ResponseWriter, code int, reason, format string, args ...any) {
	WriteJSON(w, code, map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"reason": reason,
	})
}

// --------------------------------------------------------------------
// Handlers.
// --------------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is the routing signal, distinct from /healthz liveness: a
// replica mid-startup (WAL replay) or mid-drain is alive but must not
// receive new traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		WriteJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "draining", "reason": "draining"})
	case !s.ready.Load():
		WriteJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "starting", "reason": "wal_replay"})
	default:
		WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	infos := s.catalog.list()
	for i := range infos {
		// Overlay the update state: a dataset with live batch updates
		// reports its current snapshot's generation and merged edge count.
		if v := s.updates.pin(infos[i].Name); v != nil {
			infos[i].Generation = v.gen
			infos[i].Edges = v.snap.NumEdges()
			infos[i].DeltaWords = v.snap.DeltaWords()
			infos[i].DeltaArcsAdded, infos[i].DeltaArcsDeleted = v.snap.DeltaArcs()
			infos[i].OverlayCostPredicted = s.updates.overlayCost(v.snap)
			s.updates.unref(v)
		}
		infos[i].ReadOnly, infos[i].ReadOnlyReason = s.updates.walInfo(infos[i].Name)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"algorithms": sage.Algorithms()})
}

// decodeStrict parses the request body into v: at most limit bytes, no
// unknown fields, exactly one JSON value (concatenated objects or
// trailing garbage mean a corrupted body, not input to silently
// truncate). An empty body leaves v untouched. what names the payload in
// error messages.
func decodeStrict(r *http.Request, v any, limit int64, what string) error {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(body) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("%s: unexpected data after the JSON object", what)
	}
	return nil
}

// decodeArgs parses the run endpoint's body. An empty body selects all
// defaults.
func decodeArgs(r *http.Request, args *sage.AlgoArgs) error {
	return decodeStrict(r, args, 1<<20, "args (schema: see /v1/algorithms)")
}

// GenerationHeader reports, on run and update responses, the snapshot
// generation the request executed against (run: the pinned generation,
// cache hits included; update: the generation the batch published). The
// cluster router reads it to keep its own generation-keyed result cache
// coherent without parsing response bodies.
const GenerationHeader = "X-Sage-Generation"

// SyncGenerationHeader is an update-request header carrying a generation
// floor: the batch's published generation is raised to at least this
// value (see updates.applySync). The cluster router sets it when fanning
// an update out to secondary owners so all owners agree on the batch's
// generation; clients normally never send it.
const SyncGenerationHeader = "X-Sage-Sync-Generation"

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	dsName := r.PathValue("dataset")
	algoName := r.PathValue("algo")
	includeValue := r.URL.Query().Get("value") != "false"

	var args sage.AlgoArgs
	if err := decodeArgs(r, &args); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canon, err := sage.CanonicalArgs(algoName, args)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	// Pin what this run executes against: the dataset's current snapshot
	// version when it has an update overlay, else the plain mapped
	// dataset. The pin keeps the mapping (and overlay) valid for the whole
	// run even if updates, compactions, or evictions land meanwhile.
	g, gen, release, err := s.pinForRun(dsName)
	if errors.Is(err, errUnknownDataset) {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening dataset %q: %v", dsName, err)
		return
	}
	defer release()

	// Predict this run's cost before anything executes: the prediction
	// gates admission, seeds Retry-After when there is no run history,
	// and is reported on every response — cache hits included — so
	// clients can see what the model thought the query would cost.
	est, _ := s.engine.PredictCost(algoName, g) // algoName validated above
	w.Header().Set("X-Sage-Cost-Model", est.Model)
	w.Header().Set("X-Sage-Cost-Predicted", strconv.FormatInt(est.Cost, 10))
	w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))

	key := fmt.Sprintf("%s@%d/%s?%+v", dsName, gen, algoName, canon)
	if hit, ok := s.results.Get(key); ok {
		w.Header().Set("X-Sage-Cache", "hit")
		if !includeValue {
			hit.body = hit.slim
		}
		writeJSONBytes(w, http.StatusOK, hit.body)
		return
	}

	// The admission budget covers per-run state only: a snapshot's
	// overlay is resident once regardless of how many runs share it, and
	// is bounded separately by the delta budget.
	words, _ := sage.EstimateDRAMWords(algoName, g)
	s.adm.seed(time.Duration(est.LatencyNS))
	releaseSlot, gate, ok := s.adm.admit(r.Context(), words, est.Cost)
	if !ok {
		if r.Context().Err() != nil {
			// Client gone while queued: no run started and nothing was
			// shed, so neither runs.cancelled nor a rejection counts.
			return
		}
		// Retry-After is computed from live admission state (queue depth ×
		// observed run duration / capacity), not a constant: a saturated
		// server with slow runs pushes clients further out than a blip.
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			"overloaded (%s limit): retry later", gate)
		return
	}
	defer releaseSlot()

	ctx := r.Context()
	if s.maxRun > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.maxRun)
		defer cancel()
	}

	s.runsStarted.Add(1)
	start := time.Now()
	res, err := s.engine.RunAlgorithm(ctx, algoName, g, canon)
	elapsed := time.Since(start)
	s.adm.observe(elapsed) // feeds the Retry-After estimate
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// Client disconnect (or client-side timeout): the run was
			// cancelled at its next checkpoint; the response is moot.
			s.runsCancelled.Add(1)
			writeError(w, statusClientClosedRequest, "run cancelled: %v", err)
		case errors.Is(err, context.DeadlineExceeded):
			s.runsFailed.Add(1)
			writeError(w, http.StatusGatewayTimeout,
				"run exceeded the configured time limit (%s)", s.maxRun)
		default:
			// Remaining RunAlgorithm errors are argument misuse (missing
			// numsets, out-of-range src, invalid k).
			s.runsFailed.Add(1)
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	resp := runResponse{
		Dataset:    dsName,
		Generation: gen,
		Algo:       algoName,
		Args:       canon,
		Summary:    res.Summary,
		Value:      res.Value,
		Stats:      statsJSON(res.Stats),
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
	}
	// Marshal the response once per rendering: the bytes validate
	// serializability before anything is cached (degenerate parameters
	// could in principle drive float results to ±Inf, which JSON cannot
	// carry), charge the cache's byte budget, serve this response, and
	// serve every cache hit verbatim.
	body, jerr := json.Marshal(resp)
	if jerr != nil {
		s.runsFailed.Add(1)
		writeError(w, http.StatusUnprocessableEntity,
			"result not representable in JSON (non-finite values?): %v", jerr)
		return
	}
	resp.Value = nil
	slim, jerr := json.Marshal(resp)
	if jerr != nil { // unreachable: a subset of the value just marshaled
		s.runsFailed.Add(1)
		writeError(w, http.StatusInternalServerError, "%v", jerr)
		return
	}
	s.runsOK.Add(1)
	s.results.Put(key, cachedResult{body, slim}, int64(len(body)+len(slim)))
	// The actual side of the cost contract: the run's measured counters
	// priced under the same model that produced the prediction.
	actual := s.engine.CostOfStats(res.Stats)
	w.Header().Set("X-Sage-Cost-Actual", strconv.FormatInt(actual.Cost, 10))
	w.Header().Set("X-Sage-Cost-Energy-NJ", strconv.FormatFloat(actual.EnergyNJ, 'f', 0, 64))
	w.Header().Set("X-Sage-Cache", "miss")
	if !includeValue {
		body = slim
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// statusClientClosedRequest is nginx's conventional code for a request
// the client abandoned; it is only ever written to a closed connection
// but keeps access logs honest.
const statusClientClosedRequest = 499

// updateRequest is the update endpoint's body.
type updateRequest struct {
	// Ops apply in order; see sage.EdgeOp for the per-op semantics.
	Ops []sage.EdgeOp `json:"ops"`
	// Compact folds the resulting overlay into a rewritten container file
	// after applying Ops (which may be empty: a pure compaction).
	Compact bool `json:"compact,omitempty"`
}

// updateResponse is the update endpoint's body: the new generation and
// the shape and delta footprint of the now-current snapshot.
type updateResponse struct {
	Dataset          string `json:"dataset"`
	Generation       uint64 `json:"generation"`
	Applied          int    `json:"applied"`
	Vertices         uint32 `json:"vertices"`
	Edges            uint64 `json:"edges"`
	DeltaWords       int64  `json:"delta_words"`
	DeltaArcsAdded   uint64 `json:"delta_arcs_added"`
	DeltaArcsDeleted uint64 `json:"delta_arcs_deleted"`
	Compacted        bool   `json:"compacted,omitempty"`
	AutoCompacted    bool   `json:"auto_compacted,omitempty"`
	// CompactError reports a requested compaction that failed after the
	// batch itself durably committed and published: the response is still
	// 200 — the ops are applied and recoverable — but the overlay was not
	// folded into the container. Retry with {"compact": true}.
	CompactError string  `json:"compact_error,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	dsName := r.PathValue("dataset")
	var req updateRequest
	if err := decodeStrict(r, &req, 8<<20, "update"); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Ops) == 0 && !req.Compact {
		writeError(w, http.StatusBadRequest, "empty update: provide ops, compact, or both")
		return
	}
	var minGen uint64
	if v := r.Header.Get(SyncGenerationHeader); v != "" {
		g, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%s: %q is not a generation", SyncGenerationHeader, v)
			return
		}
		minGen = g
	}
	start := time.Now()
	res, err := s.updates.applySync(dsName, req.Ops, req.Compact, minGen)
	if err != nil {
		switch {
		case errors.Is(err, errUnknownDataset):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, errDeltaBudget):
			writeError(w, http.StatusInsufficientStorage, "%v", err)
		case errors.Is(err, sage.ErrBadEdgeOp):
			writeError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, errReadOnly):
			// The WAL is unwritable: the dataset serves reads but cannot
			// accept writes until the log heals (which the next write
			// attempt probes automatically).
			writeErrorReason(w, http.StatusServiceUnavailable, "read_only", "%v", err)
		case errors.Is(err, errShuttingDown):
			writeErrorReason(w, http.StatusServiceUnavailable, "shutting_down", "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	resp := updateResponse{
		Dataset:          dsName,
		Generation:       res.generation,
		Applied:          len(req.Ops),
		Vertices:         res.vertices,
		Edges:            res.edges,
		DeltaWords:       res.deltaWords,
		DeltaArcsAdded:   res.arcsAdded,
		DeltaArcsDeleted: res.arcsDeleted,
		Compacted:        res.compacted,
		AutoCompacted:    res.autoCompacted,
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1000,
	}
	if res.compactErr != nil {
		resp.CompactError = res.compactErr.Error()
	}
	w.Header().Set(GenerationHeader, strconv.FormatUint(res.generation, 10))
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	agg := s.engine.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(s.started).Seconds(),
		// The engine aggregate is safe to snapshot with runs in flight;
		// see Engine.Stats.
		"engine": map[string]int64{
			"psam_cost":       agg.PSAMCost,
			"nvram_reads":     agg.NVRAMReads,
			"nvram_writes":    agg.NVRAMWrites,
			"dram_reads":      agg.DRAMReads,
			"dram_writes":     agg.DRAMWrites,
			"cache_hits":      agg.CacheHits,
			"cache_misses":    agg.CacheMisses,
			"peak_dram_words": agg.PeakDRAMWords,
		},
		"runs": map[string]int64{
			"started":   s.runsStarted.Load(),
			"ok":        s.runsOK.Load(),
			"failed":    s.runsFailed.Load(),
			"cancelled": s.runsCancelled.Load(),
		},
		"admission":    s.adm.snapshot(),
		"result_cache": s.results.Stats(),
		"datasets":     s.catalog.cacheInfo(),
		"updates":      s.updates.snapshot(),
		"wal":          s.updates.walSnapshot(),
	})
}
