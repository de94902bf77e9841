package server

// Durability tests for the served write path. These are internal tests:
// they drive updates.apply and pinForRun directly so a "restart" is a
// fresh Server over the same directory and the recovered state can be
// compared edge-for-edge against a reference graph maintained eagerly in
// memory.
//
// The centerpiece is the differential crash test: the WAL filesystem is
// killed at every mutation step of a multi-batch workload, the server is
// "rebooted" onto a healthy filesystem, and the recovered edge set must
// exactly equal the reference state after the acknowledged batches — or
// after one more (the in-flight batch whose bytes landed before the ack
// was returned). Anything else — a lost acked batch, a half-applied
// batch, a phantom — fails. The stored container's bytes must be
// untouched throughout: crashes only ever cost the log's unsynced tail.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sage"
	"sage/internal/graph"
	"sage/internal/wal"
)

// makeBase writes a chain graph to dir/g.sg and returns its path.
func makeBase(t *testing.T, dir string, n uint32) string {
	t.Helper()
	path := filepath.Join(dir, "g.sg")
	if err := sage.Create(path, sage.GenerateChain(n)); err != nil {
		t.Fatal(err)
	}
	return path
}

// newWALServer builds a Server with durability on, optionally on a fault
// filesystem, serving path as dataset "g". A nil fs is an unarmed
// wal.FaultFS: the log's bytes land in real files, its fsyncs are
// simulated, so the suites test the crash model without paying the host
// disk's flushes.
func newWALServer(t *testing.T, path string, fs wal.FS) *Server {
	t.Helper()
	if fs == nil {
		fs = wal.NewFaultFS(nil)
	}
	s := New(Config{Durability: Durability{Enabled: true, FS: fs}})
	if err := s.AddDataset("g", path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// arc is one directed adjacency entry; an undirected edge contributes two.
type arc struct {
	u, v uint32
	w    int32
}

// edgeSet flattens g's adjacency into a comparable set.
func edgeSet(g *sage.Graph) map[arc]bool {
	out := map[arc]bool{}
	adj := g.Raw()
	var s graph.Scratch
	for v := uint32(0); v < adj.NumVertices(); v++ {
		nghs, ws := adj.Slice(v, 0, adj.Degree(v), &s)
		for i, u := range nghs {
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			out[arc{v, u, w}] = true
		}
	}
	return out
}

// pinName pins what a run on the named dataset executes against.
func pinName(s *Server, name string) (*sage.Graph, uint64, func(), error) {
	d, err := s.catalog.lookup(name)
	if err != nil {
		return nil, 0, nil, err
	}
	return s.pinForRun(d)
}

// servedSet extracts the edge set a run on name would observe.
func servedSet(t *testing.T, s *Server, name string) map[arc]bool {
	t.Helper()
	g, _, release, err := pinName(s, name)
	if err != nil {
		t.Fatalf("pinName: %v", err)
	}
	defer release()
	return edgeSet(g)
}

// refStates returns the expected edge set after each prefix of batches:
// refs[k] is the base with the first k batches applied eagerly in memory.
func refStates(t *testing.T, path string, batches [][]sage.EdgeOp) []map[arc]bool {
	t.Helper()
	g, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	snap := g.Snapshot()
	refs := []map[arc]bool{edgeSet(snap.Graph())}
	for _, b := range batches {
		next, err := snap.ApplyBatch(b)
		if err != nil {
			t.Fatalf("reference apply: %v", err)
		}
		snap = next
		refs = append(refs, edgeSet(snap.Graph()))
	}
	return refs
}

func setsEqual(a, b map[arc]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

// randServerBatches derives a deterministic workload on n vertices
// (unweighted, no self-loops) from seed.
func randServerBatches(seed int64, n uint32) [][]sage.EdgeOp {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]sage.EdgeOp, 2+rng.Intn(3))
	for i := range batches {
		ops := make([]sage.EdgeOp, 1+rng.Intn(4))
		for j := range ops {
			u := rng.Uint32() % n
			v := rng.Uint32() % n
			if v == u {
				v = (v + 1) % n
			}
			ops[j] = sage.EdgeOp{U: u, V: v, Del: rng.Intn(3) == 0}
		}
		batches[i] = ops
	}
	return batches
}

func fileSum(t *testing.T, path string) [sha256.Size]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// applyUntilError pushes batches through the server's write path until
// one is rejected, returning the acknowledged count.
func applyUntilError(s *Server, batches [][]sage.EdgeOp) int {
	acked := 0
	for _, b := range batches {
		if _, err := s.updates.apply("g", b, false); err != nil {
			break
		}
		acked++
	}
	return acked
}

// TestCrashRecoveryDifferential is the acceptance-criteria test: kill
// the write path at every WAL mutation step over several seeded
// workloads (>= 100 trials), restart, and verify the recovered state
// differentially against the eager reference.
func TestCrashRecoveryDifferential(t *testing.T) {
	const vertices = 16
	trials := 0
	// Seven seeds keep the trial count above the floor now that pure
	// no-op batches never reach the log (they add no crash steps).
	for seed := int64(1); seed <= 7; seed++ {
		batches := randServerBatches(seed, vertices)

		// Dry run: count the WAL write path's mutation steps.
		dryDir := t.TempDir()
		dryPath := makeBase(t, dryDir, vertices)
		dry := wal.NewFaultFS(nil)
		drySrv := newWALServer(t, dryPath, dry)
		if acked := applyUntilError(drySrv, batches); acked != len(batches) {
			t.Fatalf("seed %d dry run: acked %d of %d", seed, acked, len(batches))
		}
		steps := dry.Steps()

		refDir := t.TempDir()
		refPath := makeBase(t, refDir, vertices)
		refs := refStates(t, refPath, batches)
		baseSum := fileSum(t, refPath)

		for n := 1; n <= steps; n++ {
			for _, tear := range []int{0, 7, 1 << 20} {
				trials++
				t.Run(fmt.Sprintf("seed%d/step%d/tear%d", seed, n, tear), func(t *testing.T) {
					dir := t.TempDir()
					path := makeBase(t, dir, vertices)
					if fileSum(t, path) != baseSum {
						t.Fatal("base container is not deterministic; differential baseline invalid")
					}
					ffs := wal.NewFaultFS(nil)
					ffs.CrashAt(n, tear)
					srv := newWALServer(t, path, ffs)
					acked := applyUntilError(srv, batches)
					if !ffs.Crashed() {
						t.Fatalf("crash at step %d never fired", n)
					}
					if acked == len(batches) {
						t.Fatalf("all batches acked despite crash at step %d", acked)
					}
					_ = srv.Close()

					// No compaction ran: the stored container must be
					// byte-identical to the pre-crash base.
					if fileSum(t, path) != baseSum {
						t.Fatal("crash corrupted the base container")
					}

					// Reboot on a healthy filesystem and recover.
					srv2 := newWALServer(t, path, nil)
					replayed, degraded := srv2.Recover()
					if len(degraded) != 0 {
						t.Fatalf("degraded after healthy restart: %v", degraded)
					}
					got := servedSet(t, srv2, "g")
					switch {
					case setsEqual(got, refs[acked]):
						// Exactly the acknowledged history.
					case setsEqual(got, refs[acked+1]):
						// Plus the in-flight batch whose bytes reached the
						// disk before the ack: allowed, never required.
					default:
						t.Fatalf("recovered state matches neither state(%d) nor state(%d); replayed %d",
							acked, acked+1, replayed)
					}
				})
			}
		}
	}
	if trials < 100 {
		t.Fatalf("only %d crash trials; the acceptance floor is 100", trials)
	}
	t.Logf("crash trials: %d", trials)
}

// TestRestartReplaysBatches is the plain kill -9 case: batches applied
// and acked, process dies (no Close), a fresh server must serve them.
func TestRestartReplaysBatches(t *testing.T) {
	dir := t.TempDir()
	path := makeBase(t, dir, 16)
	batches := randServerBatches(42, 16)
	refs := refStates(t, path, batches)

	srv := newWALServer(t, path, nil)
	if acked := applyUntilError(srv, batches); acked != len(batches) {
		t.Fatalf("acked %d of %d", acked, len(batches))
	}
	// No Close: the process just dies. SyncAlways means the log is
	// already durable.

	// Only state-changing batches reach the log: a batch whose ops were
	// all already satisfied is acked without a record.
	logged := 0
	for k := range batches {
		if !setsEqual(refs[k], refs[k+1]) {
			logged++
		}
	}

	srv2 := newWALServer(t, path, nil)
	replayed, degraded := srv2.Recover()
	if replayed != logged || len(degraded) != 0 {
		t.Fatalf("replayed %d (want %d of %d batches), degraded %v", replayed, logged, len(batches), degraded)
	}
	if got := servedSet(t, srv2, "g"); !setsEqual(got, refs[len(batches)]) {
		t.Fatal("restart lost acked batches")
	}
}

// TestLazyRecoveryOnFirstRead: a read arriving before Recover() still
// observes replayed batches — recovery is pinned to first touch.
func TestLazyRecoveryOnFirstRead(t *testing.T) {
	dir := t.TempDir()
	path := makeBase(t, dir, 16)
	batches := randServerBatches(7, 16)
	refs := refStates(t, path, batches)

	srv := newWALServer(t, path, nil)
	applyUntilError(srv, batches)

	srv2 := newWALServer(t, path, nil)
	// No Recover() — go straight to a read.
	if got := servedSet(t, srv2, "g"); !setsEqual(got, refs[len(batches)]) {
		t.Fatal("lazy first read did not replay the log")
	}
}

// TestCompactRetiresSegment: a compaction folds the logged batches into
// the container and resets the segment; a restart replays nothing and
// serves the compacted state.
func TestCompactRetiresSegment(t *testing.T) {
	dir := t.TempDir()
	path := makeBase(t, dir, 16)
	batches := randServerBatches(9, 16)
	refs := refStates(t, path, batches)

	srv := newWALServer(t, path, nil)
	applyUntilError(srv, batches)
	if _, err := srv.updates.apply("g", nil, true); err != nil {
		t.Fatalf("compact: %v", err)
	}
	info, err := os.Stat(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != wal.HeaderSize() {
		t.Fatalf("segment not reset after compaction: %d bytes", info.Size())
	}

	srv2 := newWALServer(t, path, nil)
	replayed, _ := srv2.Recover()
	if replayed != 0 {
		t.Fatalf("replayed %d batches from a retired segment", replayed)
	}
	if got := servedSet(t, srv2, "g"); !setsEqual(got, refs[len(batches)]) {
		t.Fatal("compacted state does not match the reference")
	}
}

// stageFS is a wal.FS that fails one stage of the container writer's
// commit protocol with an armed error: "write" and "sync" on the temp
// file, "before-rename" (the rename does not happen) and "after-rename"
// (it does). The log's own file passes through untouched.
type stageFS struct {
	wal.FS
	mu    sync.Mutex
	stage string // "" passes every stage
	err   error
}

type stageFile struct {
	wal.File
	s *stageFS
}

func newStageFS() *stageFS { return &stageFS{FS: wal.NewFaultFS(nil)} }

// arm makes stage fail with err from now on; arm("", nil) disarms.
func (s *stageFS) arm(stage string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stage, s.err = stage, err
}

// at returns the armed error when stage is the armed one.
func (s *stageFS) at(stage string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage != stage {
		return nil
	}
	return s.err
}

func (s *stageFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || strings.HasSuffix(name, WALSuffix) {
		return f, err
	}
	return &stageFile{File: f, s: s}, nil
}

func (s *stageFS) Rename(oldpath, newpath string) error {
	if err := s.at("before-rename"); err != nil {
		return err
	}
	if err := s.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	return s.at("after-rename")
}

func (f *stageFile) Write(p []byte) (int, error) {
	if err := f.s.at("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *stageFile) Sync() error {
	if err := f.s.at("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

// compactionFailureCase drives one injected Create failure: apply a
// batch durably, then fail the compaction at the given stage.
func compactionFailureCase(t *testing.T, stage string) {
	dir := t.TempDir()
	path := makeBase(t, dir, 16)
	batches := randServerBatches(11, 16)
	refs := refStates(t, path, batches)
	baseSum := fileSum(t, path)

	fs := newStageFS()
	srv := newWALServer(t, path, fs)
	if acked := applyUntilError(srv, batches); acked != len(batches) {
		t.Fatalf("acked %d of %d", acked, len(batches))
	}
	walSum := fileSum(t, path+WALSuffix)

	injected := errors.New("injected " + stage + " failure")
	fs.arm(stage, injected)
	// The batch half of the request is already durable and published, so
	// a failed fold is NOT an error: the request succeeds with the
	// failure reported in-band through compactErr (HTTP 200 with
	// compact_error), and the served state stands.
	res, err := srv.updates.apply("g", nil, true)
	if err != nil {
		t.Fatalf("compaction failure surfaced as a request error at stage %q: %v", stage, err)
	}
	if !errors.Is(res.compactErr, injected) {
		t.Fatalf("compaction at stage %q: compactErr = %v", stage, res.compactErr)
	}
	if res.compacted {
		t.Fatalf("failed compaction at stage %q reported compacted", stage)
	}
	fs.arm("", nil)

	// The published overlay stands: reads on the live server still see
	// the post-batch state, and a retried write path keeps working.
	if got := servedSet(t, srv, "g"); !setsEqual(got, refs[len(batches)]) {
		t.Fatal("failed compaction disturbed the served state")
	}

	renamed := stage == "after-rename"
	if renamed {
		// The rename landed before the injected failure: the container
		// IS the compacted state; the stale segment must not replay
		// onto it (its fingerprint names the old generation).
		if fileSum(t, path) == baseSum {
			t.Fatal("after-rename: container was not replaced")
		}
	} else {
		// The failure preceded the rename: old container and its log
		// must be byte-for-byte intact and still replayable.
		if fileSum(t, path) != baseSum {
			t.Fatalf("%s: old container modified by failed compaction", stage)
		}
		if fileSum(t, path+WALSuffix) != walSum {
			t.Fatalf("%s: WAL segment modified by failed compaction", stage)
		}
	}
	_ = srv.Close()

	// Restart: both shapes must recover to exactly the post-batch state
	// — by replaying the intact log (pre-rename) or by discarding the
	// stale log against the already-compacted container (post-rename).
	srv2 := newWALServer(t, path, nil)
	replayed, degraded := srv2.Recover()
	if len(degraded) != 0 {
		t.Fatalf("degraded after restart: %v", degraded)
	}
	if renamed && replayed != 0 {
		t.Fatalf("stale segment replayed %d batches onto the compacted container", replayed)
	}
	if !renamed && replayed == 0 {
		t.Fatal("intact segment replayed nothing")
	}
	if got := servedSet(t, srv2, "g"); !setsEqual(got, refs[len(batches)]) {
		t.Fatalf("restart after %s-stage failure lost the batches", stage)
	}
	if renamed {
		var ms walStats
		if ms = srv2.updates.walSnapshot(); ms.DiscardedSegments != 1 {
			t.Fatalf("stale segment not discarded: %+v", ms)
		}
	}
}

func TestCompactionFailurePaths(t *testing.T) {
	for _, stage := range []string{"write", "sync", "before-rename", "after-rename"} {
		t.Run(stage, func(t *testing.T) { compactionFailureCase(t, stage) })
	}
}

// TestCrashBetweenRenameAndRetire covers the compaction crash window the
// fingerprint exists for: the new container is in place but the process
// dies before the old segment is removed. Simulated by compacting
// normally, then restoring the pre-compaction segment bytes next to the
// new container.
func TestCrashBetweenRenameAndRetire(t *testing.T) {
	dir := t.TempDir()
	path := makeBase(t, dir, 16)
	batches := randServerBatches(13, 16)
	refs := refStates(t, path, batches)

	srv := newWALServer(t, path, nil)
	applyUntilError(srv, batches)
	staleWAL, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.updates.apply("g", nil, true); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	if err := os.WriteFile(path+WALSuffix, staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newWALServer(t, path, nil)
	replayed, _ := srv2.Recover()
	if replayed != 0 {
		t.Fatalf("stale segment double-applied %d batches", replayed)
	}
	if got := servedSet(t, srv2, "g"); !setsEqual(got, refs[len(batches)]) {
		t.Fatal("recovery after the rename/retire window is wrong")
	}
	if ms := srv2.updates.walSnapshot(); ms.DiscardedSegments != 1 {
		t.Fatalf("stale segment not discarded: %+v", ms)
	}
}

// TestCompactErrorOverHTTP pins the wire contract for a compacting batch
// whose fold fails after the batch itself durably committed and
// published: HTTP 200 with the failure reported in compact_error, never
// a 500 that would make the client believe the ops were lost.
func TestCompactErrorOverHTTP(t *testing.T) {
	dir := t.TempDir()
	path := makeBase(t, dir, 16)
	fs := newStageFS()
	srv := newWALServer(t, path, fs)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	injected := errors.New("injected sync failure")
	fs.arm("sync", injected)

	resp, err := http.Post(ts.URL+"/v1/update/g", "application/json",
		strings.NewReader(`{"ops": [{"u": 0, "v": 9}], "compact": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact failure returned %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	msg, _ := body["compact_error"].(string)
	if !strings.Contains(msg, "injected sync failure") {
		t.Fatalf("compact_error = %q, want the injected failure", msg)
	}
	if compacted, _ := body["compacted"].(bool); compacted {
		t.Fatalf("failed compaction reported compacted: %v", body)
	}
	fs.arm("", nil)

	// The batch half of the request stands: the inserted edge is served.
	got := servedSet(t, srv, "g")
	if !got[arc{0, 9, 0}] && !got[arc{0, 9, 1}] {
		t.Fatal("ops from the failed-compact batch were lost")
	}
}

// TestCompactionCrashRecovery carries the crash enumeration across a
// compaction. The log and the container writer share one FaultFS, so one
// step counter spans the whole compacting window: append → fsync →
// publish → container write → fsync → rename → directory sync → log
// removal → new log header. The window is a request carrying ops plus
// "compact": true, or a batch that trips auto-compaction. After every
// crash, a healthy restart must serve the acknowledged history (or one
// batch more) over a base that is byte-for-byte either the old container
// or the one the dry run wrote, with at most one stray temp file beside
// it, and a surviving pre-compaction log must be discarded, not replayed
// onto the new container.
func TestCompactionCrashRecovery(t *testing.T) {
	trials := 0
	for _, auto := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			trials += compactionCrashTrials(t, seed, auto)
		}
	}
	t.Logf("crash trials: %d", trials)
}

// compactionCrashTrials enumerates every crash step of one seeded
// workload ending in a compacting window, returning the trial count.
func compactionCrashTrials(t *testing.T, seed int64, auto bool) int {
	const vertices = 10
	refDir := t.TempDir()
	refPath := makeBase(t, refDir, vertices)
	baseBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	batches := randServerBatches(seed, vertices)
	if auto {
		// Distinct inserts grow the overlay until its predicted cost
		// trips the fold (the setup of TestAutoCompactionFiresOnce).
		cfg.AutoCompactCost = 60
		for v := uint32(2); v < vertices; v++ {
			batches = append(batches, []sage.EdgeOp{{U: 0, V: v}})
		}
	} else {
		// The compacting batch toggles an edge, so it always reaches the
		// log: a pre-compaction log holds at least one record.
		refs := refStates(t, refPath, batches)
		batches = append(batches, []sage.EdgeOp{{U: 0, V: vertices - 1,
			Del: refs[len(batches)][arc{0, vertices - 1, 1}]}})
	}

	// run serves a fresh copy of the base over fs and applies batches
	// until one is rejected or one folds the overlay, returning the
	// server, the base's path, the acknowledged count, and the index of
	// the batch that folded (-1: none).
	run := func(t *testing.T, fs wal.FS, batches [][]sage.EdgeOp) (*Server, string, int, int) {
		path := filepath.Join(t.TempDir(), "g.sg")
		if err := os.WriteFile(path, baseBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Durability = Durability{Enabled: true, FS: fs}
		srv := New(c)
		if err := srv.AddDataset("g", path); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		acked := 0
		for i, b := range batches {
			res, err := srv.updates.apply("g", b, !auto && i == len(batches)-1)
			if err != nil {
				break
			}
			acked++
			if res.compacted {
				return srv, path, acked, i
			}
		}
		return srv, path, acked, -1
	}

	// Dry run: count the steps and keep the container the fold writes.
	dry := wal.NewFaultFS(nil)
	_, dryPath, acked, folded := run(t, dry, batches)
	if folded < 0 || acked != folded+1 {
		t.Fatalf("seed %d auto %v dry run: acked %d, folded at batch %d", seed, auto, acked, folded)
	}
	batches = batches[:folded+1]
	steps := dry.Steps()
	oldSum, newSum := sha256.Sum256(baseBytes), fileSum(t, dryPath)
	if oldSum == newSum {
		t.Fatalf("seed %d auto %v: the fold left the container unchanged", seed, auto)
	}
	refs := refStates(t, refPath, batches)

	trials := 0
	for n := 1; n <= steps; n++ {
		for _, tear := range []int{0, 7, 1 << 20} {
			trials++
			t.Run(fmt.Sprintf("auto%v/seed%d/step%d/tear%d", auto, seed, n, tear), func(t *testing.T) {
				ffs := wal.NewFaultFS(nil)
				ffs.CrashAt(n, tear)
				srv, path, acked, _ := run(t, ffs, batches)
				if !ffs.Crashed() {
					t.Fatalf("crash at step %d never fired", n)
				}
				_ = srv.Close()

				strays, err := filepath.Glob(filepath.Join(filepath.Dir(path), ".sage-create-*"))
				if err != nil || len(strays) > 1 {
					t.Fatalf("stray temp files: %v (%v)", strays, err)
				}
				sum := fileSum(t, path)
				if sum != oldSum && sum != newSum {
					t.Fatal("base is neither the old container nor the compacted one")
				}
				info, err := os.Stat(path + WALSuffix)
				oldLog := err == nil && info.Size() > wal.HeaderSize()

				srv2 := newWALServer(t, path, nil)
				replayed, degraded := srv2.Recover()
				if len(degraded) != 0 {
					t.Fatalf("degraded after healthy restart: %v", degraded)
				}
				got := servedSet(t, srv2, "g")
				if !setsEqual(got, refs[acked]) && (acked == len(batches) || !setsEqual(got, refs[acked+1])) {
					t.Fatalf("recovered state matches neither state(%d) nor state(%d); replayed %d",
						acked, acked+1, replayed)
				}
				if sum == newSum && oldLog {
					if ms := srv2.updates.walSnapshot(); replayed != 0 || ms.DiscardedSegments != 1 {
						t.Fatalf("pre-compaction log beside the new container: replayed %d, discarded %d",
							replayed, ms.DiscardedSegments)
					}
				}
			})
		}
	}
	return trials
}

// TestCloseUpdateRace races close() against in-flight writers and
// readers and asserts the shutdown contract: every write returns — 200,
// or errShuttingDown for one that lost the race; none hangs — nothing
// repopulates the state maps afterwards, and no committer goroutine
// outlives Close.
func TestCloseUpdateRace(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		dir := t.TempDir()
		path := makeBase(t, dir, 16)
		baseline := runtime.NumGoroutine()
		srv := newWALServer(t, path, nil)

		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					op := sage.EdgeOp{U: uint32(w), V: uint32(8 + i%8)}
					if _, err := srv.updates.apply("g", []sage.EdgeOp{op}, false); err != nil {
						if !errors.Is(err, errShuttingDown) {
							t.Errorf("writer %d: unexpected error: %v", w, err)
						}
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 64; i++ {
				if _, _, release, err := pinName(srv, "g"); err == nil {
					release()
				}
			}
		}()
		close(start)
		time.Sleep(time.Duration(trial) * 50 * time.Microsecond)
		if err := srv.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
		wg.Wait() // a hung writer fails the run by timeout

		srv.updates.mu.Lock()
		for _, d := range srv.catalog.all() {
			if d.version != nil || d.ws.log != nil {
				t.Errorf("trial %d: state repopulated after close: dataset %q holds version=%v log=%v",
					trial, d.name, d.version != nil, d.ws.log != nil)
			}
		}
		srv.updates.mu.Unlock()
		if t.Failed() {
			t.FailNow()
		}
		if _, err := srv.updates.apply("g", []sage.EdgeOp{{U: 0, V: 9}}, false); !errors.Is(err, errShuttingDown) {
			t.Fatalf("trial %d: write after close: %v", trial, err)
		}
		// Close waited for the committer, so the count is already back; the
		// grace loop only covers the runtime retiring exited goroutines.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("trial %d: %d goroutines, %d before the server existed: a committer leaked",
					trial, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// concurrentCrashWorkload drives disjoint single-insert batches from
// several writers at once until the armed crash (if any) stops them,
// returning each writer's acknowledged count. Writer w's i-th batch
// inserts edge {w, 8 + w*perWriter + i}, so recovered state decomposes
// into independently checkable per-writer prefixes.
func concurrentCrashWorkload(srv *Server, writers, perWriter int) []int {
	acked := make([]int, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				op := sage.EdgeOp{U: uint32(w), V: uint32(8 + w*perWriter + i)}
				if _, err := srv.updates.apply("g", []sage.EdgeOp{op}, false); err != nil {
					return
				}
				acked[w]++
			}
		}(w)
	}
	close(start)
	wg.Wait()
	return acked
}

// TestConcurrentWritersCrashRecovery is the server-level group-commit
// crash test: several writers share commit windows, the WAL filesystem
// is killed at every mutation step, and after reboot each writer's
// recovered batches must be a prefix of its submissions covering at
// least everything it was acked — a shared fsync that tears may cost the
// unacked tail of a window, never an acked batch and never a batch out
// of order within one writer.
func TestConcurrentWritersCrashRecovery(t *testing.T) {
	const (
		vertices  = 32
		writers   = 4
		perWriter = 3
		// steps is the fixed crash budget: 3 set-up mutations, then one
		// append and one fsync per batch — the most a run can take, when
		// every commit window holds a single batch. How many windows a run
		// actually forms follows goroutine scheduling, so the budget does
		// not: trials past a run's last step see no crash and check full
		// recovery instead.
		steps = 3 + 2*writers*perWriter
	)

	// A dry run only confirms the budget covers every mutation.
	dryDir := t.TempDir()
	dryPath := makeBase(t, dryDir, vertices)
	dry := wal.NewFaultFS(nil)
	drySrv := newWALServer(t, dryPath, dry)
	concurrentCrashWorkload(drySrv, writers, perWriter)
	if got := dry.Steps(); got > steps {
		t.Fatalf("dry run took %d mutation steps, over the budget of %d", got, steps)
	}

	refDir := t.TempDir()
	refPath := makeBase(t, refDir, vertices)

	for n := 1; n <= steps; n++ {
		for _, tear := range []int{0, 7} {
			t.Run(fmt.Sprintf("step%d/tear%d", n, tear), func(t *testing.T) {
				dir := t.TempDir()
				path := makeBase(t, dir, vertices)
				ffs := wal.NewFaultFS(nil)
				ffs.CrashAt(n, tear)
				srv := newWALServer(t, path, ffs)
				acked := concurrentCrashWorkload(srv, writers, perWriter)
				crashed := ffs.Crashed()
				_ = srv.Close()

				srv2 := newWALServer(t, path, nil)
				if _, degraded := srv2.Recover(); len(degraded) != 0 {
					t.Fatalf("degraded after healthy restart: %v", degraded)
				}
				got := servedSet(t, srv2, "g")
				pairs := map[[2]uint32]bool{}
				for a := range got {
					pairs[[2]uint32{a.u, a.v}] = true
				}

				// Per-writer prefix invariant.
				var recovered []sage.EdgeOp
				for w := 0; w < writers; w++ {
					prefix := 0
					for prefix < perWriter && pairs[[2]uint32{uint32(w), uint32(8 + w*perWriter + prefix)}] {
						prefix++
					}
					for i := prefix; i < perWriter; i++ {
						if pairs[[2]uint32{uint32(w), uint32(8 + w*perWriter + i)}] {
							t.Fatalf("writer %d: batch %d recovered but batch %d lost (not a prefix)", w, i, prefix)
						}
					}
					if prefix < acked[w] {
						t.Fatalf("writer %d: acked %d batches, recovered only %d", w, acked[w], prefix)
					}
					if prefix > acked[w]+1 {
						t.Fatalf("writer %d: recovered %d batches with only %d acked", w, prefix, acked[w])
					}
					if !crashed && prefix != perWriter {
						t.Fatalf("writer %d: crash never fired yet only %d of %d batches survive", w, prefix, perWriter)
					}
					for i := 0; i < prefix; i++ {
						recovered = append(recovered, sage.EdgeOp{U: uint32(w), V: uint32(8 + w*perWriter + i)})
					}
				}

				// Exactness: the served set is the base plus exactly the
				// recovered prefixes — no phantom arcs.
				ref, err := sage.Open(refPath)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				want := edgeSet(ref.Snapshot().Graph())
				if len(recovered) > 0 {
					next, err := ref.Snapshot().ApplyBatch(recovered)
					if err != nil {
						t.Fatal(err)
					}
					want = edgeSet(next.Graph())
				}
				if !setsEqual(got, want) {
					t.Fatalf("recovered state does not equal base + per-writer prefixes (got %d arcs, want %d)",
						len(got), len(want))
				}
			})
		}
	}
}
