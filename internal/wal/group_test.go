package wal

// Commit-window coverage: one Commit makes a whole window of appended
// records durable with a single fsync; a failed flush rolls every record
// of the window back together; and the single-writer crash enumeration
// proves every acknowledged window survives any crash point — including
// the points inside a compaction's retire and reinit of the log — while
// the survivors stay a clean sequence prefix.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestGroupCommitSharedFsync(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	ffs := NewFaultFS(nil)

	l, _, err := Open(base+".wal", fp, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p1, err := l.AppendBuffer([]Op{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := l.AppendBuffer([]Op{{U: 1, V: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.seq != 1 || p2.seq != 2 {
		t.Fatalf("seqs %d, %d", p1.seq, p2.seq)
	}

	// Committing the later batch makes the earlier one durable too: one
	// fsync covers the whole appended window, so the second Commit must
	// return without touching the disk again.
	before := ffs.Steps()
	if err := l.Commit(p2); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(p1); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Steps() - before; got != 1 {
		t.Fatalf("%d disk steps for two commits, want 1 shared fsync", got)
	}
	if st := l.Stats(); st.GroupSyncs != 1 || st.GroupBatches != 2 {
		t.Fatalf("group counters: %+v", st)
	}
}

func TestGroupCommitRollbackFailsWindow(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"
	ffs := NewFaultFS(nil)

	l, _, err := Open(walPath, fp, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := appendSync(l, []Op{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}

	// Two appended batches, then the disk stops fsyncing: the window's
	// flush fails and BOTH roll back — the disk cannot say which of the
	// window's records it kept, so neither may be acknowledged.
	p2, err := l.AppendBuffer([]Op{{U: 1, V: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := l.AppendBuffer([]Op{{U: 2, V: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetSyncError(true)
	if err := l.Commit(p2); !IsInjectedSync(err) {
		t.Fatalf("commit under sync failure: %v", err)
	}
	if err := l.Commit(p3); !IsInjectedSync(err) {
		t.Fatalf("commit of a rolled-back record: %v", err)
	}

	// The disk heals: the sequence counter rewound with the rollback, so
	// the next batch reuses seq 2, and replay sees exactly the two
	// successful batches.
	ffs.SetSyncError(false)
	if seq, err := appendSync(l, []Op{{U: 5, V: 6}}); err != nil || seq != 2 {
		t.Fatalf("append after heal: seq %d err %v", seq, err)
	}
	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 ||
		!opsEqual(rec.Batches[0].Ops, []Op{{U: 0, V: 1}}) ||
		!opsEqual(rec.Batches[1].Ops, []Op{{U: 5, V: 6}}) {
		t.Fatalf("recovered %+v", rec.Batches)
	}
}

func TestCloseFlushesAppendedRecords(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"
	ffs := NewFaultFS(nil)

	l, _, err := Open(walPath, fp, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBuffer([]Op{{U: 0, V: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	// Close makes a record that was appended but never committed durable:
	// it pays the one fsync the missing Commit would have.
	before := ffs.Steps()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Steps() - before; got != 1 {
		t.Fatalf("%d disk steps in Close, want the one fsync", got)
	}
	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("recovered %d batches", len(rec.Batches))
	}
}

// windowSizes is the crash enumeration's workload: sixteen commit windows
// of 1..4 records each.
var windowSizes = []int{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}

// windowOp is the single op of record i (0-based, across generations).
func windowOp(i int) Op { return Op{U: uint32(i), V: uint32(i + 1)} }

// recycleSteps is what one recycle adds to the crash enumeration: the
// retired log's remove and directory sync, then the fresh log's header
// write, sync and directory sync.
const recycleSteps = 5

// writeGeneration writes the container generation that has folded in the
// first folded records — what a compaction leaves behind.
func writeGeneration(base string, folded int) error {
	return os.WriteFile(base, []byte(fmt.Sprintf("base+%d", folded)), 0o644)
}

// foldedRecords reads back how many records the container at base has
// folded in; the seed generation "base" has none.
func foldedRecords(base string) (int, error) {
	data, err := os.ReadFile(base)
	if err != nil {
		return 0, err
	}
	folded := 0
	fmt.Sscanf(string(data), "base+%d", &folded)
	return folded, nil
}

// crashWorkload is the single writer: it appends each window's records
// and commits the window once, until the armed crash kills the log. It
// returns how many records were acknowledged (their window's Commit
// returned nil) and how many records the window in flight at the crash
// held. With recycleEvery > 0 it compacts after every recycleEvery-th
// window the way the server does: the acknowledged records are folded
// into a new container generation, the log is retired, and a fresh log
// is opened for the new base — so crash points land on the retire and
// reinit steps too.
func crashWorkload(dir string, fs *FaultFS, windows []int, recycleEvery int) (acked, inFlight int, openErr error) {
	base := filepath.Join(dir, "g.sg")
	fp, err := FingerprintFile(nil, base)
	if err != nil {
		return 0, 0, err
	}
	l, _, err := Open(base+".wal", fp, Options{FS: fs})
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = l.Close() }() // after a crash Close reports it; the counts are the result
	for w, size := range windows {
		var last *Pending
		for i := 0; i < size; i++ {
			p, err := l.AppendBuffer([]Op{windowOp(acked + i)}, nil)
			if err != nil {
				return acked, size, nil
			}
			last = p
		}
		if err := l.Commit(last); err != nil {
			return acked, size, nil
		}
		acked += size
		if recycleEvery == 0 || (w+1)%recycleEvery != 0 {
			continue
		}
		if err := writeGeneration(base, acked); err != nil {
			return acked, 0, err
		}
		if fp, err = FingerprintFile(nil, base); err != nil {
			return acked, 0, err
		}
		if err := l.CloseAndRemove(); err != nil {
			return acked, 0, nil
		}
		next, _, err := Open(base+".wal", fp, Options{FS: fs})
		if err != nil {
			return acked, 0, nil
		}
		l = next
	}
	return acked, 0, nil
}

// crashEveryStep crashes crashWorkload at every mutation step of a dry
// run, once per tear size, and recovers. Invariants: every acknowledged
// record survives, folded into the container or replayed from the log;
// the log's survivors are a contiguous sequence prefix of the records
// submitted since the last fold; and beyond the acknowledged ones at most
// a prefix of the one window in flight appears.
func crashEveryStep(t *testing.T, windows []int, recycleEvery int, tears []int) {
	total := 0
	for _, size := range windows {
		total += size
	}
	recycles := 0
	if recycleEvery > 0 {
		recycles = len(windows) / recycleEvery
	}
	dryDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dryDir, "g.sg"), []byte("base"), 0o644); err != nil {
		t.Fatal(err)
	}
	dry := NewFaultFS(nil)
	if acked, _, err := crashWorkload(dryDir, dry, windows, recycleEvery); err != nil || acked != total {
		t.Fatalf("dry run: acked %d of %d, err %v", acked, total, err)
	}
	steps := dry.Steps()
	if steps < 3+total+len(windows)+recycleSteps*recycles {
		t.Fatalf("only %d steps in the dry run", steps)
	}

	for n := 1; n <= steps; n++ {
		for _, tear := range tears {
			t.Run(fmt.Sprintf("step%d/tear%d", n, tear), func(t *testing.T) {
				dir := t.TempDir()
				base := filepath.Join(dir, "g.sg")
				if err := os.WriteFile(base, []byte("base"), 0o644); err != nil {
					t.Fatal(err)
				}
				ffs := NewFaultFS(nil)
				ffs.CrashAt(n, tear)
				acked, inFlight, _ := crashWorkload(dir, ffs, windows, recycleEvery)
				if !ffs.Crashed() {
					t.Fatalf("crash at step %d never fired", n)
				}

				folded, err := foldedRecords(base)
				if err != nil {
					t.Fatal(err)
				}
				fp, err := FingerprintFile(nil, base)
				if err != nil {
					t.Fatal(err)
				}
				l, rec, err := Open(base+".wal", fp, Options{})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer l.Close()

				if rec.Discarded && acked > folded {
					t.Fatalf("log with %d acked batches discarded", acked-folded)
				}
				// Survivors are a contiguous sequence prefix of real
				// submissions — no phantom, reordered, or corrupt batch.
				for i, b := range rec.Batches {
					if b.Seq != uint64(i+1) || !opsEqual(b.Ops, []Op{windowOp(folded + i)}) {
						t.Fatalf("batch %d: seq %d, ops %+v", i, b.Seq, b.Ops)
					}
				}
				// Acknowledged windows all survived; only records of the
				// window in flight may appear beyond them.
				if got := folded + len(rec.Batches); got < acked || got > acked+inFlight {
					t.Fatalf("acked %d (+%d in flight), recovered %d (%d folded)", acked, inFlight, got, folded)
				}
				// The recovered log accepts new appends.
				if seq, err := appendSync(l, []Op{{U: 9, V: 9}}); err != nil || seq != uint64(len(rec.Batches)+1) {
					t.Fatalf("append after recovery: seq %d err %v", seq, err)
				}
			})
		}
	}
}

func TestGroupCommitCrashEveryStep(t *testing.T) {
	// One writer, windows of 1..4 records with one Commit each, crash at
	// every mutation step (between a window's appends, inside its fsync),
	// first on one log, then with the log rotating through container
	// generations: a compaction recycles it every second window, so crash
	// points land inside the retire and reinit too.
	t.Run("flat", func(t *testing.T) {
		crashEveryStep(t, windowSizes, 0, []int{0, 7})
	})
	t.Run("rotating", func(t *testing.T) {
		crashEveryStep(t, slices.Concat(windowSizes, windowSizes), 2, []int{0, 7})
	})
}
