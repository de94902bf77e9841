package server

// Batch-dynamic updates for served datasets. The stored file stays
// immutable; POST /v1/update/{dataset} folds a batch of edge ops into a
// DRAM-resident delta overlay (sage.Snapshot) and atomically swaps the
// dataset's current snapshot. Snapshots are versioned and refcounted:
//
//   - Every run pins the snapshot version current when it was admitted;
//     an update arriving mid-run swaps the current version without
//     touching pinned ones, and a version's base mapping is released only
//     when the dataset record's reference and every pinned run are gone.
//   - Each swap bumps the generation on the dataset's record (catalog.go)
//     under the same lock, so result-cache keys (generation, algo, args)
//     from older versions can never answer a query against the new one,
//     and a reader never sees one version at another's generation.
//   - A compacting update writes the merged view through sage.Create
//     (atomic temp-file rename over the dataset path), invalidates the
//     cache entry so new requests map the compacted file, and drops the
//     overlay; in-flight runs finish on the detached old mapping.
//
// Every write to a dataset goes through that dataset's committer role:
// whoever holds it owns the dataset's newest state and is the only caller
// of its write-ahead log. A writer that finds the role free takes it and
// commits on its own goroutine; one that finds it taken queues its
// request and waits. The holder's own request plus whatever is queued is
// one commit window, carried through commit: apply each batch onto the
// running snapshot, append a log record per batch that changed something,
// one fsync, one generation bump and version swap, then answer. The
// holder then hands the role to the oldest writer queued meanwhile, so
// nobody commits more than the window its own request is in. While one
// window's fsync runs the next writers queue up behind it, so N
// concurrent writers pay about one fsync per window instead of N, and
// every batch of a window reports the window's one generation. A failed
// fsync fails the whole window — nothing in it was acknowledged or
// published — and the published version is simply still the published
// version.
//
// The delta budget bounds each dataset's overlay DRAM words — the PSAM
// small-memory account the overlay lives in. A batch that would exceed it
// is rejected with 507 Insufficient Storage until a compaction folds the
// delta into the base.
//
// Auto-compaction closes the loop with the cost model: every window
// re-prices the dataset's overlay traversal overhead — the predicted
// extra cost a full-edge run pays because updates still live in the
// overlay (costmodel.OverlayOverhead under the engine's profile) — and
// when it crosses the configured threshold the overlay is folded into
// the base exactly as an explicit compact request would. The trigger is
// a hysteresis band (fire at the threshold, re-arm only after the
// overhead falls below half of it), so a dataset hovering near the
// threshold compacts once, not on every batch.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sage"
	"sage/internal/costmodel"
	"sage/internal/store"
	"sage/internal/wal"
)

// errDeltaBudget marks a rejected over-budget batch (507).
var errDeltaBudget = fmt.Errorf("delta budget exceeded")

// errShuttingDown marks a write that arrived after close() began (503).
var errShuttingDown = errors.New("server is shutting down")

// errTakeRole is not an answer: sent on a queued request's done channel it
// tells the waiting writer that the committer role is now its own.
var errTakeRole = errors.New("committer role handed over")

// snapVersion is one published snapshot of a dataset: the overlay view
// and the cache handle pinning the base mapping. refs counts the dataset
// record's reference plus every in-flight run.
type snapVersion struct {
	snap *sage.Snapshot
	ds   *store.Dataset // the base the snapshot composes with
	h    *store.Handle
	refs int // guarded by updates.mu
}

// writeReq is one update request on its way through a commit window. The
// role holder fills res and then sends the outcome on done.
type writeReq struct {
	ops     []sage.EdgeOp
	compact bool
	minGen  uint64
	res     updateResult
	done    chan error // capacity 1: the role holder never blocks answering
}

// updates owns the write path of every dataset: its versions, committer
// role, log and auto-compaction trigger, all kept on the dataset records.
type updates struct {
	catalog *catalog
	budget  int64      // max overlay DRAM words per dataset; 0 = unlimited
	wcfg    Durability // write-ahead log configuration (see durability.go)

	// model prices overlay traversal overhead; autoHigh/autoLow bound the
	// auto-compaction hysteresis band (autoHigh 0 disables it).
	model    costmodel.Profile
	autoHigh int64
	autoLow  int64

	// mu guards the mutable fields of every dataset record.
	mu     sync.Mutex
	closed bool // set by close(); no write is queued or started after

	batches           atomic.Int64
	opsApplied        atomic.Int64
	compactions       atomic.Int64
	autoCompactions   atomic.Int64
	autoCompactErrors atomic.Int64
	rejectedDelta     atomic.Int64
	walAppends        atomic.Int64
	walReplayed       atomic.Int64
	walDiscarded      atomic.Int64
	readOnlyRejected  atomic.Int64
}

func newUpdates(c *catalog, budgetWords int64, wcfg Durability, model costmodel.Profile, autoCompactCost int64) *updates {
	if wcfg.FS == nil {
		wcfg.FS = wal.OS
	}
	return &updates{
		catalog:  c,
		budget:   budgetWords,
		wcfg:     wcfg,
		model:    model,
		autoHigh: autoCompactCost,
		autoLow:  autoCompactCost / 2,
	}
}

// overlayCost prices snap's overlay traversal overhead under the model.
func (u *updates) overlayCost(snap *sage.Snapshot) int64 {
	added, deleted := snap.DeltaArcs()
	return costmodel.OverlayOverhead(&u.model, snap.DeltaWords(), added, deleted)
}

// pin returns d's current snapshot version, refcounted, or nil when it
// has no overlay, and the generation it is current at — read together, so
// the pair always describes one state. The caller must unref the version
// when its run ends.
func (u *updates) pin(d *dataset) (*snapVersion, uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	v := d.version
	if v != nil {
		v.refs++
	}
	return v, d.gen
}

// current reports whether d is still at generation gen.
func (u *updates) current(d *dataset, gen uint64) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return d.gen == gen
}

// unref drops one reference; the last one releases the base pin.
func (u *updates) unref(v *snapVersion) {
	u.mu.Lock()
	v.refs--
	last := v.refs == 0
	u.mu.Unlock()
	if last {
		v.h.Release()
	}
}

// deltaStats gathers the per-dataset overlay footprints and their
// predicted traversal overheads, for /metrics: the aggregate counters
// alone cannot tell which dataset's overlay is the expensive one.
func (u *updates) deltaStats() (perDataset map[string]datasetDeltaStats, words int64) {
	all := u.catalog.all()
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, d := range all {
		v := d.version
		if v == nil {
			continue
		}
		if perDataset == nil {
			perDataset = map[string]datasetDeltaStats{}
		}
		added, deleted := v.snap.DeltaArcs()
		perDataset[d.name] = datasetDeltaStats{
			DeltaWords:           v.snap.DeltaWords(),
			DeltaArcsAdded:       added,
			DeltaArcsDeleted:     deleted,
			OverlayCostPredicted: u.overlayCost(v.snap),
			AutoCompactArmed:     !d.disarmed,
		}
		words += v.snap.DeltaWords()
	}
	return perDataset, words
}

// updateResult is what apply reports back to the handler.
type updateResult struct {
	generation    uint64
	vertices      uint32
	edges         uint64
	deltaWords    int64
	arcsAdded     uint64
	arcsDeleted   uint64
	compacted     bool
	autoCompacted bool  // the cost-model hysteresis, not the client, asked
	compactErr    error // the requested fold failed; the batch itself stands
}

// apply folds ops into name's current snapshot (creating the identity
// snapshot on first update), optionally compacting afterwards. It returns
// errUnknownDataset, errDeltaBudget, a sage validation error (client
// errors), errReadOnly (the WAL is unwritable, 503), errShuttingDown
// (close() began, 503), or an IO error.
//
// With durability enabled the batch is logged and made durable by its
// window's fsync before its overlay becomes visible, so the published
// state never gets ahead of the log. A batch that changes nothing against published state publishes
// nothing: no swap, no log record, and no generation bump, so cached
// results survive it. A compaction requested alongside ops is a second
// phase: if the container rewrite fails, the (already durable, already
// published) overlay stands, and the failure is reported in-band through
// updateResult.compactErr — exactly the state crash recovery would
// rebuild.
func (u *updates) apply(name string, ops []sage.EdgeOp, compact bool) (*updateResult, error) {
	return u.applySync(name, ops, compact, 0)
}

// applySync is apply with a generation floor: when the batch's window
// publishes a new generation (a real swap or a compaction), that
// generation is raised to at least minGen (0: no floor). The cluster
// router sets the floor on update fan-out — X-Sage-Sync-Generation
// carries the primary owner's post-batch generation — so every owner
// publishes the same batch at the same generation and (generation, algo,
// args) result-cache keys mean the same thing on every replica. A no-op
// batch keeps its no-publish guarantee: contents already match the
// floor's state, so cached results stay valid and the existing generation
// is reported.
//
// The caller commits the request itself when it finds the dataset's
// committer role free, and otherwise queues it and waits: for its answer,
// or for the role. Every queued request is answered — by the holder whose
// window takes it, or with errShuttingDown by the last holder once
// close() has begun.
func (u *updates) applySync(name string, ops []sage.EdgeOp, compact bool, minGen uint64) (*updateResult, error) {
	d, err := u.catalog.lookup(name)
	if err != nil {
		return nil, err
	}
	r := &writeReq{ops: ops, compact: compact, minGen: minGen, done: make(chan error, 1)}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil, errShuttingDown
	}
	lead := !d.busy
	if lead {
		d.busy = true
	} else {
		d.queue = append(d.queue, r)
	}
	u.mu.Unlock()
	if !lead {
		err = <-r.done
		lead = err == errTakeRole
	}
	if lead {
		u.commit(d, r)
		u.passRole(d)
		err = <-r.done
	}
	if err != nil {
		return nil, err
	}
	return &r.res, nil
}

// queueDepth is the most requests one window takes, so a queue that never
// runs dry cannot keep a window open for ever: small enough that a full
// window's applies add about a millisecond to its first request.
const queueDepth = 64

// passRole ends the caller's turn as d's role holder: the oldest queued
// writer becomes the holder, or the role falls free. Once close() has
// begun nobody else commits, and whoever is still queued is turned away.
func (u *updates) passRole(d *dataset) {
	u.mu.Lock()
	if !u.closed && len(d.queue) > 0 {
		next := d.queue[0]
		d.queue = d.queue[1:]
		u.mu.Unlock()
		next.done <- errTakeRole
		return
	}
	turnedAway := d.queue // non-empty only once close() has begun
	d.queue, d.busy = nil, false
	u.mu.Unlock()
	for _, r := range turnedAway {
		r.done <- errShuttingDown
	}
}

// commit carries one window through the write path and answers every
// request in it. The window is first — the role holder's own request —
// plus whatever else is queued by the time the holder has dealt with the
// request before it — so the writers that queue up behind one window's
// fsync all land in the next — up to queueDepth requests. The order is
// the durability argument, and it is all here: append → fsync → publish.
//
// Requests apply in arrival order onto the window's running snapshot. A
// request that fails validation or the delta budget is answered alone and
// leaves the running snapshot untouched. One that changes nothing is held
// like the rest — what it found already present may be an earlier batch
// of this same window, so it must not be acknowledged before that batch
// is durable, nor at a generation where it is not yet visible. When the
// fsync fails, every held request gets the 503 and nothing is published.
func (u *updates) commit(d *dataset, first *writeReq) {
	if u.wcfg.Enabled && d.ws.log == nil {
		// First touch, or the log failed to open (or died) earlier: run the
		// whole recovery, so a healed disk needs no restart. With no open
		// log there is no window in flight, so a fresh replay cannot
		// double-apply anything.
		u.recover(d)
	}

	// The window's version needs its own pin on the base mapping. Only
	// the role holder compacts the dataset, and any current version's pin
	// keeps the entry from being evicted, so this resolves to the same
	// mapping the current snapshot composes with.
	h, err := u.catalog.acquire(d)
	u.mu.Lock()
	cur, gen := d.version, d.gen
	u.mu.Unlock()
	if err == nil && cur != nil && cur.ds != h.Dataset() { // unreachable; guards the pin invariant
		h.Release()
		err = fmt.Errorf("snapshot base lost its mapping (dataset %q)", d.name)
	}
	if err != nil {
		first.done <- err
		return
	}
	var published *sage.Snapshot
	if cur != nil {
		published = cur.snap
	} else {
		published = sage.GraphFromDataset(h.Dataset()).Snapshot()
	}

	snap := published     // the running snapshot
	var last *wal.Pending // ticket of the newest buffered record
	logged := 0           // records buffered
	var held []*writeReq  // accepted, answered after the barrier
	var floor uint64      // highest generation floor among them
	taken := 1
	more := func() *writeReq {
		u.mu.Lock()
		defer u.mu.Unlock()
		if taken == queueDepth || len(d.queue) == 0 || u.closed {
			return nil
		}
		r := d.queue[0]
		d.queue = d.queue[1:]
		taken++
		return r
	}
	for r := first; r != nil; r = more() {
		next, err := snap.ApplyBatch(r.ops)
		if err == nil && u.budget > 0 && next.DeltaWords() > u.budget && !r.compact {
			u.rejectedDelta.Add(1)
			err = fmt.Errorf("%w: overlay would hold %d DRAM words (budget %d); compact or split the batch",
				errDeltaBudget, next.DeltaWords(), u.budget)
		}
		if err != nil {
			r.done <- err
			continue
		}
		// ApplyBatch hands back its receiver when every op was already
		// satisfied, and a batch can cancel itself out over an empty
		// overlay; neither is logged or counted as a change.
		if next != snap && (snap.DeltaWords() != 0 || next.DeltaWords() != 0) {
			if u.wcfg.Enabled {
				p, err := u.walAppend(d, r.ops)
				if err != nil {
					// The log may have rolled back records buffered earlier
					// in this window; stop extending it and let the barrier
					// below say which of them stand.
					u.readOnlyRejected.Add(1)
					r.done <- err
					break
				}
				last = p
				logged++
			}
			snap = next
		}
		r.res = updateResult{vertices: snap.NumVertices(), edges: snap.NumEdges(), deltaWords: snap.DeltaWords()}
		r.res.arcsAdded, r.res.arcsDeleted = snap.DeltaArcs()
		held = append(held, r)
		floor = max(floor, r.minGen)
		if r.compact {
			// The fold rewrites the base under the overlay, so it runs with
			// nothing behind it in the window.
			break
		}
	}

	if last != nil {
		// The barrier: one fsync makes every record appended up to last
		// durable before any of the window becomes visible; on failure
		// the log has rolled all of it back.
		if err := d.ws.log.Commit(last); err != nil {
			err = u.readOnly(d, err)
			h.Release()
			u.readOnlyRejected.Add(int64(len(held)))
			for _, r := range held {
				r.done <- err
			}
			return
		}
		u.setWAL(d, d.ws.log, nil)
		u.walAppends.Add(int64(logged))
	}
	if snap != published {
		var nv *snapVersion
		if snap.DeltaWords() > 0 {
			nv = &snapVersion{snap: snap, ds: h.Dataset(), h: h, refs: 1}
		} else {
			// The window cancelled the overlay out: back to the plain base.
			h.Release()
		}
		gen = u.publish(d, nv, floor)
	} else {
		h.Release()
	}

	for i, r := range held {
		r.res.generation = gen
		if len(r.ops) > 0 {
			u.batches.Add(1)
			u.opsApplied.Add(int64(len(r.ops)))
		}
		if i == len(held)-1 {
			// Compaction is the window's tail, reported by its last request.
			// The overlay it folds is already durable and published, so a
			// failed fold leaves exactly what crash recovery would rebuild;
			// a requested one reports that in-band (200 with compact_error)
			// and a retried compact picks up from here.
			if r.compact {
				if err := u.compact(d, snap, floor, &r.res); err != nil {
					r.res.compactErr = err
				}
			} else if snap != published && u.autoHigh > 0 && snap.DeltaWords() > 0 {
				u.maybeAutoCompact(d, snap, &r.res)
			}
		}
		r.done <- nil
	}
}

// publish makes nv (nil: the plain base) d's current version at the next
// generation, raised to at least floor, and returns that generation. The
// swap and the bump happen under one lock, so every reader pins a version
// together with the generation it was published at.
//
//sage:publish
func (u *updates) publish(d *dataset, nv *snapVersion, floor uint64) uint64 {
	u.mu.Lock()
	old := d.version
	d.version = nv
	d.gen = max(d.gen+1, floor)
	gen := d.gen
	if nv == nil {
		// No overlay left means its traversal overhead is genuinely zero,
		// so the auto-compaction trigger re-arms (a *failed* compaction
		// leaves the overlay — and the disarmed state — in place).
		d.disarmed = false
	}
	u.mu.Unlock()
	if old != nil {
		u.unref(old)
	}
	return gen
}

// maybeAutoCompact re-prices the just-published overlay's traversal
// overhead and folds it into the base when the hysteresis band says so.
// The batch itself never fails on the auto path — its overlay is already
// live.
func (u *updates) maybeAutoCompact(d *dataset, snap *sage.Snapshot, res *updateResult) {
	if !u.shouldAutoCompact(d, u.overlayCost(snap)) {
		return
	}
	if err := u.compact(d, snap, 0, res); err != nil {
		// Stay disarmed: a failing compaction is retried at the next
		// crossing of the band, not on every batch.
		u.autoCompactErrors.Add(1)
		return
	}
	u.autoCompactions.Add(1)
	res.autoCompacted = true
}

// shouldAutoCompact is the hysteresis decision: fire only when armed and
// the overhead reaches the high-water mark, then stay disarmed until the
// overhead falls below the low-water mark (half the threshold). Repeated
// batches hovering at the threshold therefore trigger exactly one
// compaction — the folded overlay restarts near zero, re-arming the
// trigger naturally — and a failed compaction is not retried per batch.
func (u *updates) shouldAutoCompact(d *dataset, overhead int64) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case overhead < u.autoLow:
		d.disarmed = false
		return false
	case !d.disarmed && overhead >= u.autoHigh:
		d.disarmed = true
		return true
	default:
		return false
	}
}

// compact folds snap's merged view into a rewritten container (atomic
// temp-file rename through store.Create, on the log's filesystem), swaps
// readers onto the next generation (raised to at least floor), and
// retires the WAL whose records were folded in. It runs on the dataset's
// role holder after snap's overlay state has been published (or is
// empty), so a failure here leaves a consistent, durable overlay behind.
func (u *updates) compact(d *dataset, snap *sage.Snapshot, floor uint64, res *updateResult) error {
	if err := store.Create(u.wcfg.FS, d.path, snap.Encoding(), ""); err != nil {
		return fmt.Errorf("compacting %q: %w", d.name, err)
	}
	// The new container is durably in place — its rename is the commit, so
	// no log record is due. Swap readers over (in-flight runs finish on the
	// detached old mapping) and retire the folded log.
	u.catalog.cache.Invalidate(d.path)
	gen := u.publish(d, nil, floor) //sage:allow walorder
	u.retireSegment(d)
	// Reopen the compacted file now, so a broken write surfaces here.
	h, err := u.catalog.acquire(d)
	if err != nil {
		return fmt.Errorf("reopening compacted %q: %w", d.name, err)
	}
	h.Release()
	u.compactions.Add(1)
	res.generation = gen
	res.compacted = true
	res.deltaWords, res.arcsAdded, res.arcsDeleted = 0, 0, 0
	return nil
}

// close turns every later write away, waits for each dataset's role
// holder to finish the window it is in — a holder that finds closed set
// answers whoever is still queued, close's own marker included, with
// errShuttingDown and hands the role to nobody — then drops every
// version (in-flight pins still defer the base release until their runs
// end) and closes every WAL log, flushing appended records.
// The first close error is returned: Close performs the final flush, so a
// failure here can mean a logged batch never reached the disk.
func (u *updates) close() error {
	all := u.catalog.all()
	u.mu.Lock()
	u.closed = true
	var markers []*writeReq // one queued behind each role holder
	for _, d := range all {
		if d.busy {
			m := &writeReq{done: make(chan error, 1)}
			d.queue = append(d.queue, m)
			markers = append(markers, m)
		}
	}
	u.mu.Unlock()
	for _, m := range markers {
		<-m.done
	}

	// Nobody holds a role now, or ever will again: the fields the holder
	// owns are close's to clear.
	var versions []*snapVersion
	var logs []*wal.Log
	u.mu.Lock()
	for _, d := range all {
		if d.version != nil {
			versions = append(versions, d.version)
		}
		if d.ws.log != nil {
			logs = append(logs, d.ws.log)
		}
		d.version, d.ws.log = nil, nil
	}
	u.mu.Unlock()
	for _, v := range versions {
		u.unref(v)
	}
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapshot reports the update counters for /metrics.
func (u *updates) snapshot() updateStats {
	perDataset, words := u.deltaStats()
	return updateStats{
		DeltaBudgetWords:    u.budget,
		CostModel:           u.model.ModelName,
		AutoCompactCost:     u.autoHigh,
		AutoCompactLow:      u.autoLow,
		DatasetsWithDelta:   len(perDataset),
		DeltaWords:          words,
		Batches:             u.batches.Load(),
		OpsApplied:          u.opsApplied.Load(),
		Compactions:         u.compactions.Load(),
		AutoCompactions:     u.autoCompactions.Load(),
		AutoCompactErrors:   u.autoCompactErrors.Load(),
		RejectedDeltaBudget: u.rejectedDelta.Load(),
		PerDataset:          perDataset,
	}
}

// updateStats is the /metrics view of the update layer.
type updateStats struct {
	DeltaBudgetWords    int64                        `json:"delta_budget_words"`
	CostModel           string                       `json:"cost_model"`
	AutoCompactCost     int64                        `json:"auto_compact_cost"`
	AutoCompactLow      int64                        `json:"auto_compact_low,omitempty"`
	DatasetsWithDelta   int                          `json:"datasets_with_delta"`
	DeltaWords          int64                        `json:"delta_words"`
	Batches             int64                        `json:"batches"`
	OpsApplied          int64                        `json:"ops_applied"`
	Compactions         int64                        `json:"compactions"`
	AutoCompactions     int64                        `json:"auto_compactions"`
	AutoCompactErrors   int64                        `json:"auto_compact_errors,omitempty"`
	RejectedDeltaBudget int64                        `json:"rejected_delta_budget"`
	PerDataset          map[string]datasetDeltaStats `json:"per_dataset,omitempty"`
}

// datasetDeltaStats is one dataset's overlay footprint in /metrics: the
// raw delta words and arcs alongside the model-priced traversal overhead
// that auto-compaction acts on.
type datasetDeltaStats struct {
	DeltaWords           int64  `json:"delta_words"`
	DeltaArcsAdded       uint64 `json:"delta_arcs_added"`
	DeltaArcsDeleted     uint64 `json:"delta_arcs_deleted"`
	OverlayCostPredicted int64  `json:"overlay_cost_predicted"`
	AutoCompactArmed     bool   `json:"auto_compact_armed"`
}

// pinForRun resolves what a run on d should execute against: the
// current snapshot version (pinned for the run's duration) when the
// dataset has an overlay, else the plain cached dataset. The first pin
// of a dataset replays its surviving WAL records, so reads observe
// recovered batches even before Recover has walked the catalog.
func (s *Server) pinForRun(d *dataset) (g *sage.Graph, gen uint64, release func(), err error) {
	s.updates.ensureRecovered(d)
	for {
		v, gen := s.updates.pin(d)
		if v != nil {
			return v.snap.Graph(), gen, func() { s.updates.unref(v) }, nil
		}
		h, err := s.catalog.acquire(d)
		if err != nil {
			return nil, 0, nil, err
		}
		if s.updates.current(d, gen) {
			return sage.GraphFromDataset(h.Dataset()), gen, h.Release, nil
		}
		// A window published meanwhile, and a compaction may have folded
		// it into the file just mapped: that mapping is newer than gen.
		h.Release()
	}
}
