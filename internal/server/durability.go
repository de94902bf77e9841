package server

// The durable half of the update path. Without it, every delta overlay
// is DRAM-only: a crash loses all batches applied since the last
// compaction, and a restarted server silently serves the stale base. With
// durability enabled, each dataset gets a write-ahead log at <path>.wal
// (internal/wal): an accepted batch is appended and fsynced before its
// overlay becomes visible, so the
// served state is always reconstructible from (container generation,
// surviving log records). Recovery replays those records onto the stored
// base; compaction folds them into a new container generation and retires
// the log.
//
// Each dataset's log has exactly one caller at a time, the holder of the
// dataset's committer role (updates.go) — the single writer internal/wal
// requires: it appends one record per state-changing batch of a commit
// window (wal.Log.AppendBuffer) and then commits once, on the last
// record's ticket (wal.Log.Commit) — one fsync acknowledges the whole
// window. Recovery runs under the role too, as the first thing done for a
// dataset, so replay and writes cannot interleave.
//
// Degradation is graceful and self-healing: when the log cannot be
// appended to (disk full, fsync failure, a log that failed to open — say,
// because a rotated log's sealed <path>.wal.1 sits beside it), the
// dataset drops to read-only — writes answer 503 with a machine-readable
// reason while reads keep serving — and the next write attempt probes the
// log again, so the dataset recovers the moment the disk does, without a
// restart.

import (
	"errors"
	"fmt"

	"sage"
	"sage/internal/wal"
)

// WALSuffix is appended to a dataset's stored path to name its
// write-ahead log.
const WALSuffix = ".wal"

// Durability configures the write-ahead log guarding update batches.
// The zero value disables it (updates are DRAM-only, pre-WAL behavior).
// Enabled, every accepted batch is fsynced before its 200 is written;
// there is no weaker setting.
type Durability struct {
	// Enabled turns the per-dataset write-ahead log on.
	Enabled bool
	// FS substitutes the filesystem the logs and compaction's container
	// rewrites live on; nil means the real one. Tests inject wal.FaultFS
	// here to simulate crashes, short writes, and fsync failures.
	FS wal.FS
}

// errReadOnly marks a write rejected because the dataset's WAL is
// unwritable (503 with reason "read_only").
var errReadOnly = errors.New("dataset is read-only: write-ahead log unavailable")

// walState is one dataset's durability state, kept on its record. Only
// the dataset's role holder writes it (and close, once no holder is
// left), under updates.mu because listings and metrics read it; the
// holder reads it without the lock (the role itself changes hands under
// updates.mu, so a new holder sees the last one's writes).
type walState struct {
	log      *wal.Log // nil when the log could not be opened
	readOnly bool
	reason   string // degradation cause, "" when healthy
}

// setWAL records the outcome of the latest log operation: the log now in
// use (nil: none) and its health — a nil err restores the dataset to
// writable, a non-nil one degrades it to read-only with the error as the
// reason.
func (u *updates) setWAL(d *dataset, log *wal.Log, err error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	d.ws.log = log
	if err != nil {
		d.ws.readOnly, d.ws.reason = true, err.Error()
	} else {
		d.ws.readOnly, d.ws.reason = false, ""
	}
}

// walInfo reports d's durability state for listings: whether the
// dataset is currently read-only and why.
func (u *updates) walInfo(d *dataset) (readOnly bool, reason string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return d.ws.readOnly, d.ws.reason
}

// recover opens d's WAL and replays surviving records onto the stored
// base, installing the recovered snapshot as the current version, then
// marks d recovered whatever the outcome — on failure the dataset is
// read-only until a later window's retry succeeds — so reads stop asking
// for it. It runs under d's committer role.
func (u *updates) recover(d *dataset) {
	u.openSegment(d)
	u.mu.Lock()
	d.recovered = true
	u.mu.Unlock()
}

// openSegment fingerprints the container, opens (or creates) its WAL,
// and replays surviving records. On any failure the dataset is
// left read-only with the cause as the machine-readable reason; reads
// keep serving the base. It runs under the dataset's committer role.
func (u *updates) openSegment(d *dataset) {
	fp, err := wal.FingerprintFile(u.wcfg.FS, d.path)
	if err != nil {
		u.setWAL(d, nil, fmt.Errorf("fingerprinting container: %w", err))
		return
	}
	log, rec, err := wal.Open(d.path+WALSuffix, fp, wal.Options{FS: u.wcfg.FS})
	if err != nil {
		u.setWAL(d, nil, err)
		return
	}
	u.setWAL(d, log, nil)
	if rec.Discarded {
		u.walDiscarded.Add(1)
	}
	if len(rec.Batches) == 0 {
		return
	}

	// Replay — unless a current version exists: then this is a reopen
	// after the log died, an earlier recovery already replayed these
	// records, and applying them again would double-apply them.
	u.mu.Lock()
	hasVersion := d.version != nil
	u.mu.Unlock()
	if hasVersion {
		return
	}
	h, err := u.catalog.acquire(d)
	if err != nil {
		_ = log.Close() // abandoning the log; the open error is the story
		u.setWAL(d, nil, fmt.Errorf("opening base for replay: %w", err))
		return
	}
	snap := sage.GraphFromDataset(h.Dataset()).Snapshot()
	var good wal.Batch // zero value: truncate the whole log away
	replayed := 0
	for _, b := range rec.Batches {
		next, err := snap.ApplyBatch(edgeOps(b.Ops))
		if err != nil {
			// A record that no longer applies to this base is cut off like
			// a torn tail: everything before it is the recovered state.
			if terr := log.TruncateTo(good); terr != nil {
				// The bad tail is still on disk and would replay again
				// after a crash; refuse writes until the disk recovers.
				u.setWAL(d, log, fmt.Errorf("truncating unreplayable tail: %w", terr))
			}
			break
		}
		snap = next
		good = b
		replayed++
	}
	u.walReplayed.Add(int64(replayed))
	if snap.DeltaWords() == 0 {
		// The surviving batches cancel out (or were all no-ops): the base
		// is already the recovered state.
		h.Release()
		return
	}
	// Replay republishes records the WAL already holds; no new append is due.
	nv := &snapVersion{snap: snap, ds: h.Dataset(), h: h, refs: 1}
	u.publish(d, nv, 0) //sage:allow walorder
}

// ensureRecovered replays d's surviving WAL records (once) before a read
// observes the dataset. After the first touch it is one flag test; the
// first touch itself is an empty write, whose commit recovers first
// (inline, when the dataset is idle).
func (u *updates) ensureRecovered(d *dataset) {
	if !u.wcfg.Enabled {
		return
	}
	u.mu.Lock()
	done := d.recovered
	u.mu.Unlock()
	if !done {
		// After shutdown began the write is turned away; the read goes on.
		_, _ = u.applySync(d.name, nil, false, 0)
	}
}

// readOnly records a failed log operation — the dataset drops to
// read-only with cause as the reason, and a log that died (wal.ErrClosed)
// is let go so the next window reopens it from disk — and returns the 503
// for the write that hit it. The log cleans up after its own failures, so
// the next attempt probes a clean tail and the dataset recovers without
// intervention.
func (u *updates) readOnly(d *dataset, cause error) error {
	log := d.ws.log
	if errors.Is(cause, wal.ErrClosed) {
		log = nil
	}
	u.setWAL(d, log, cause)
	return fmt.Errorf("%w (dataset %q): %v", errReadOnly, d.name, cause)
}

// walAppend appends one batch to d's log behind whatever the window has
// appended already. The record has a sequence number but is not durable
// yet — the window's one wal.Log.Commit makes it so.
func (u *updates) walAppend(d *dataset, ops []sage.EdgeOp) (*wal.Pending, error) {
	if d.ws.log == nil {
		return nil, fmt.Errorf("%w (dataset %q): %s", errReadOnly, d.name, d.ws.reason)
	}
	p, err := d.ws.log.AppendBuffer(walOps(ops), nil)
	if err != nil {
		return nil, u.readOnly(d, err)
	}
	return p, nil
}

// retireSegment retires d's WAL after a compaction durably
// replaced the container: the folded records must never replay onto the
// new generation. Even if the process dies before the removal lands, the
// stale log's base fingerprint no longer matches the rewritten
// container, so recovery discards it — removal is cleanup, not
// correctness. A fresh log is then opened for the new generation.
func (u *updates) retireSegment(d *dataset) {
	if !u.wcfg.Enabled {
		return
	}
	if d.ws.log != nil {
		// A failed remove leaves a stale log that can never replay
		// (its fingerprint no longer matches the rewritten container),
		// and openSegment's fresh open re-probes the disk immediately.
		d.ws.log.CloseAndRemove() //sage:allow syncerr
	}
	u.openSegment(d)
}

// walSnapshot reports the durability layer for /metrics, aggregating the
// per-log group-commit counters across datasets.
func (u *updates) walSnapshot() walStats {
	s := walStats{Enabled: u.wcfg.Enabled}
	if !u.wcfg.Enabled {
		return s
	}
	all := u.catalog.all()
	var logs []*wal.Log
	u.mu.Lock()
	for _, d := range all {
		if d.ws.readOnly {
			s.ReadOnlyDatasets++
		}
		if d.ws.log != nil {
			logs = append(logs, d.ws.log)
		}
	}
	u.mu.Unlock()
	for _, log := range logs {
		st := log.Stats()
		s.GroupSyncs += st.GroupSyncs
		s.GroupBatches += st.GroupBatches
	}
	s.Appends = u.walAppends.Load()
	s.ReplayedBatches = u.walReplayed.Load()
	s.DiscardedSegments = u.walDiscarded.Load()
	s.RejectedReadOnly = u.readOnlyRejected.Load()
	return s
}

// walStats is the /metrics view of the durability layer. GroupSyncs and
// GroupBatches measure group-commit effectiveness: batches ÷ syncs is the
// mean commit window — 1.0 means every batch paid its own fsync, higher
// means concurrent writers shared commit windows.
type walStats struct {
	Enabled           bool  `json:"enabled"`
	ReadOnlyDatasets  int   `json:"read_only_datasets"`
	Appends           int64 `json:"appends"`
	ReplayedBatches   int64 `json:"replayed_batches"`
	DiscardedSegments int64 `json:"discarded_segments"`
	RejectedReadOnly  int64 `json:"rejected_read_only"`
	GroupSyncs        int64 `json:"group_syncs"`
	GroupBatches      int64 `json:"group_batches"`
}

// walOps converts a validated batch to its log form. wal.Op has EdgeOp's
// four fields but stays its own type: the log is a leaf package that
// imports nothing of the module (CI asserts it), so the copy lives here.
func walOps(ops []sage.EdgeOp) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = wal.Op{U: op.U, V: op.V, W: op.W, Del: op.Del}
	}
	return out
}

// edgeOps converts replayed log records back to batch form.
func edgeOps(ops []wal.Op) []sage.EdgeOp {
	out := make([]sage.EdgeOp, len(ops))
	for i, op := range ops {
		out[i] = sage.EdgeOp{U: op.U, V: op.V, W: op.W, Del: op.Del}
	}
	return out
}
