package server

// Commit-window semantics. These tests need several requests in one
// window on purpose, so the WAL sits on a filesystem whose fsync can be
// held shut: a leader batch is parked inside its fsync, the writers under
// test queue up behind it, and releasing the gate makes them one window.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sage"
	"sage/internal/wal"
)

// gateFS is a wal.FS whose files' Sync can be held shut.
type gateFS struct {
	wal.FS
	mu      sync.Mutex
	hold    chan struct{} // non-nil: Sync announces itself on entered, then waits for hold to close
	entered chan struct{}
}

type gateFile struct {
	wal.File
	g *gateFS
}

func newGateFS(inner wal.FS) *gateFS {
	return &gateFS{FS: inner, entered: make(chan struct{}, 1)}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

// shut makes the next Sync block; open releases it and every later one
// (and is harmless when the gate is already open).
func (g *gateFS) shut() {
	g.mu.Lock()
	g.hold = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateFS) open() {
	g.mu.Lock()
	if g.hold != nil {
		close(g.hold)
		g.hold = nil
	}
	g.mu.Unlock()
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	hold := f.g.hold
	f.g.mu.Unlock()
	if hold != nil {
		select {
		case f.g.entered <- struct{}{}:
		default: // nobody is waiting to hear about a second held fsync
		}
		<-hold
	}
	return f.File.Sync()
}

// waitingWriters counts the writers inside dataset g's write path: the
// committer role's holder plus every request queued behind it.
func waitingWriters(srv *Server) int {
	d, _ := srv.catalog.lookup("g")
	u := srv.updates
	u.mu.Lock()
	defer u.mu.Unlock()
	if !d.busy {
		return 0
	}
	return 1 + len(d.queue)
}

type writeOutcome struct {
	res *updateResult
	err error
}

// oneWindow commits batches as a single window: it parks a leader batch
// inside its fsync, waits until one writer per batch is queued behind it,
// runs beforeRelease, and opens the gate. It returns the leader's outcome
// and each batch's, and fails the test if any batch is answered while the
// gate is still shut.
func oneWindow(t *testing.T, srv *Server, gate *gateFS, leader []sage.EdgeOp, batches [][]sage.EdgeOp, beforeRelease func()) (writeOutcome, []writeOutcome) {
	t.Helper()
	gate.shut()
	defer gate.open() // a t.Fatal below must not leave the server wedged in its fsync
	leaderDone := make(chan writeOutcome, 1)
	go func() {
		res, err := srv.updates.apply("g", leader, false)
		leaderDone <- writeOutcome{res, err}
	}()
	<-gate.entered

	type indexed struct {
		i int
		writeOutcome
	}
	answered := make(chan indexed, len(batches))
	for i, b := range batches {
		go func() {
			res, err := srv.updates.apply("g", b, false)
			answered <- indexed{i, writeOutcome{res, err}}
		}()
	}
	// The leader is waiting for its answer; every batch's writer must be
	// waiting behind it before the gate opens.
	for deadline := time.Now().Add(10 * time.Second); waitingWriters(srv) < 1+len(batches); {
		select {
		case a := <-answered:
			t.Fatalf("batch %d answered (res %+v, err %v) before its window's fsync finished", a.i, a.res, a.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writers queued behind the held fsync", waitingWriters(srv)-1, len(batches))
		}
		time.Sleep(time.Millisecond)
	}
	if beforeRelease != nil {
		beforeRelease()
	}
	gate.open()

	out := make([]writeOutcome, len(batches))
	for range batches {
		a := <-answered
		out[a.i] = a.writeOutcome
	}
	return <-leaderDone, out
}

// TestWindowSharesOneFsyncAndOneGeneration: N writers queued together are
// one window — one fsync for all their records and one generation bump.
func TestWindowSharesOneFsyncAndOneGeneration(t *testing.T) {
	const writers = 6
	path := makeBase(t, t.TempDir(), 32)
	gate := newGateFS(wal.NewFaultFS(nil))
	srv := newWALServer(t, path, gate)
	srv.Recover()

	batches := make([][]sage.EdgeOp, writers)
	for w := range batches {
		batches[w] = []sage.EdgeOp{{U: uint32(w), V: uint32(16 + w)}}
	}
	leader, outs := oneWindow(t, srv, gate, []sage.EdgeOp{{U: 0, V: 31}}, batches, nil)
	if leader.err != nil {
		t.Fatalf("leader: %v", leader.err)
	}
	for w, o := range outs {
		if o.err != nil {
			t.Fatalf("writer %d: %v", w, o.err)
		}
		if o.res.generation != leader.res.generation+1 {
			t.Fatalf("writer %d reports generation %d; the window after generation %d should bump once",
				w, o.res.generation, leader.res.generation)
		}
	}
	ws := srv.updates.walSnapshot()
	if ws.GroupSyncs != 2 || ws.GroupBatches != writers+1 {
		t.Fatalf("group_syncs=%d group_batches=%d, want 2 fsyncs for %d batches", ws.GroupSyncs, ws.GroupBatches, writers+1)
	}
	if _, gen, release, err := pinName(srv, "g"); err != nil || gen != leader.res.generation+1 {
		t.Fatalf("published generation %d (err %v), want %d", gen, err, leader.res.generation+1)
	} else {
		release()
	}
}

// TestNoopInWindowSharesItsFate is the early-acknowledgement regression:
// a batch that is a no-op only because an earlier batch of the same
// window already did its work depends on state that is not durable yet.
// It must be answered with that window, not ahead of it.
func TestNoopInWindowSharesItsFate(t *testing.T) {
	e := []sage.EdgeOp{{U: 3, V: 11}}
	hasE := func(set map[arc]bool) bool { return set[arc{3, 11, 1}] && set[arc{11, 3, 1}] }

	t.Run("fsync fails", func(t *testing.T) {
		path := makeBase(t, t.TempDir(), 16)
		ffs := wal.NewFaultFS(nil)
		gate := newGateFS(ffs)
		srv := newWALServer(t, path, gate)
		srv.Recover()

		_, outs := oneWindow(t, srv, gate, []sage.EdgeOp{{U: 0, V: 9}}, [][]sage.EdgeOp{e, e},
			func() { ffs.SetSyncError(true) })
		for i, o := range outs {
			if !errors.Is(o.err, errReadOnly) {
				t.Fatalf("insert %d: res %+v, err %v; want the window's read-only rejection", i, o.res, o.err)
			}
		}
		if hasE(servedSet(t, srv, "g")) {
			t.Fatal("the failed window's edge is being served")
		}
		_ = srv.Close()

		srv2 := newWALServer(t, path, nil)
		if _, degraded := srv2.Recover(); len(degraded) != 0 {
			t.Fatalf("degraded after healthy restart: %v", degraded)
		}
		if hasE(servedSet(t, srv2, "g")) {
			t.Fatal("an edge nobody was acknowledged for survived the restart")
		}
	})

	t.Run("healthy disk", func(t *testing.T) {
		path := makeBase(t, t.TempDir(), 16)
		gate := newGateFS(wal.NewFaultFS(nil))
		srv := newWALServer(t, path, gate)
		srv.Recover()

		_, outs := oneWindow(t, srv, gate, []sage.EdgeOp{{U: 0, V: 9}}, [][]sage.EdgeOp{e, e}, nil)
		for i, o := range outs {
			if o.err != nil {
				t.Fatalf("insert %d: %v", i, o.err)
			}
		}
		if outs[0].res.generation != outs[1].res.generation {
			t.Fatalf("one window, two generations: %d and %d", outs[0].res.generation, outs[1].res.generation)
		}
		g, gen, release, err := pinName(srv, "g")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		if gen != outs[0].res.generation || !hasE(edgeSet(g)) {
			t.Fatalf("a read at generation %d (acknowledged: %d) sees the edge: %v", gen, outs[0].res.generation, hasE(edgeSet(g)))
		}
	})
}

// TestLoneWriterCrossesNoGoroutine: a write that finds its dataset idle
// recovers and commits on the caller's own goroutine, so the first write
// on a fresh server leaves the goroutine count where it found it.
func TestLoneWriterCrossesNoGoroutine(t *testing.T) {
	srv := newWALServer(t, makeBase(t, t.TempDir(), 16), nil)
	before := runtime.NumGoroutine()
	if _, err := srv.updates.apply("g", []sage.EdgeOp{{U: 0, V: 9}}, false); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before a lone write, %d after", before, after)
	}
}

// goSyncFS is a wal.FS that counts fsyncs by calling goroutine.
type goSyncFS struct {
	wal.FS
	mu sync.Mutex
	by map[string]int
}

type goSyncFile struct {
	wal.File
	fs *goSyncFS
}

// goID names the calling goroutine ("goroutine 42").
func goID() string {
	buf := make([]byte, 64)
	header := string(buf[:runtime.Stack(buf, false)])
	return header[:strings.Index(header, " [")]
}

func (g *goSyncFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &goSyncFile{File: f, fs: g}, nil
}

func (g *goSyncFS) mine() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.by[goID()]
}

func (f *goSyncFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.by[goID()]++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// TestWriterCommitsOnlyItsOwnWindow: what one writer pays for the others
// is bounded by the window its own request is in. Every batch below
// changes the graph, so every window costs its holder exactly one fsync:
// no call may see more than one on its own goroutine, however many
// writers queued up behind it meanwhile.
func TestWriterCommitsOnlyItsOwnWindow(t *testing.T) {
	const writers, perWriter = 8, 40
	fs := &goSyncFS{FS: wal.NewFaultFS(nil), by: map[string]int{}}
	srv := newWALServer(t, makeBase(t, t.TempDir(), 16+writers*perWriter), fs)
	srv.Recover() // opens the log (and fsyncs its header) here, not under a writer

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				before := fs.mine()
				op := sage.EdgeOp{U: uint32(w), V: uint32(16 + w*perWriter + i)}
				if _, err := srv.updates.apply("g", []sage.EdgeOp{op}, false); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
				if n := fs.mine() - before; n > 1 {
					t.Errorf("writer %d batch %d: committed %d windows in one call", w, i, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	ws := srv.updates.walSnapshot()
	if ws.GroupBatches != writers*perWriter {
		t.Fatalf("group_batches=%d, want %d", ws.GroupBatches, writers*perWriter)
	}
	t.Logf("%d batches in %d windows", ws.GroupBatches, ws.GroupSyncs)
}

// TestMetricsScrapeBesideCommits: /metrics reads each log's commit
// counters while writers commit through it. The log has no mutex, so the
// counters are the only state read off the writer's goroutine; under
// -race this fails if they stop being atomics. The scrapes must also
// never see the counters run backwards, and the last one must count
// every batch.
func TestMetricsScrapeBesideCommits(t *testing.T) {
	const writers, perWriter = 4, 50
	srv := newWALServer(t, makeBase(t, t.TempDir(), 16+writers*perWriter), nil)
	srv.Recover()

	scrape := func() (walStats, error) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m struct {
			WAL walStats `json:"wal"`
		}
		if rec.Code != http.StatusOK {
			return m.WAL, fmt.Errorf("/metrics answered %d", rec.Code)
		}
		err := json.Unmarshal(rec.Body.Bytes(), &m)
		return m.WAL, err
	}

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		var last walStats
		defer func() { scraped <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ws, err := scrape()
			if err != nil {
				t.Error(err)
				return
			}
			n++
			if ws.GroupSyncs < last.GroupSyncs || ws.GroupBatches < last.GroupBatches {
				t.Errorf("counters ran backwards: %+v after %+v", ws, last)
				return
			}
			last = ws
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				op := sage.EdgeOp{U: uint32(w), V: uint32(16 + w*perWriter + i)}
				if _, err := srv.updates.applySync("g", []sage.EdgeOp{op}, false, 0); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	n := <-scraped

	ws, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	if ws.GroupBatches != writers*perWriter || ws.GroupSyncs < 1 || ws.GroupSyncs > ws.GroupBatches {
		t.Fatalf("group_syncs=%d group_batches=%d after %d batches", ws.GroupSyncs, ws.GroupBatches, writers*perWriter)
	}
	t.Logf("%d scrapes beside %d batches in %d windows", n, ws.GroupBatches, ws.GroupSyncs)
}
