package wal

// Commit-window coverage: one Commit makes a whole window of appended
// records durable with a single fsync; a failed flush rolls every record
// of the window back together; and the single-writer crash enumeration
// proves every acknowledged window survives any crash point while the
// survivors stay a clean sequence prefix.

import (
	"fmt"
	"os"
	"path/filepath"
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

// windowOp is the single op of record i (0-based, chain-global).
func windowOp(i int) Op { return Op{U: uint32(i), V: uint32(i + 1)} }

// crashWorkload is the single writer: it appends each window's records
// and commits the window once, until the armed crash kills the log. It
// returns how many records were acknowledged (their window's Commit
// returned nil) and how many records the window in flight at the crash
// held. rotate adds a segment cap of two records, so windows straddle
// rotations and crash points land on rotation steps too.
func crashWorkload(dir string, fs *FaultFS, rotate bool) (acked, inFlight int, openErr error) {
	base := filepath.Join(dir, "g.sg")
	fp, err := FingerprintFile(nil, base)
	if err != nil {
		return 0, 0, err
	}
	opts := Options{FS: fs}
	if rotate {
		opts.SegmentBytes = headerSize + 2*recordLen(make([]Op, 1))
	}
	l, _, err := Open(base+".wal", fp, opts)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	for _, size := range windowSizes {
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
	}
	return acked, 0, nil
}

func TestGroupCommitCrashEveryStep(t *testing.T) {
	// One writer, windows of 1..4 records with one Commit each, crash at
	// every mutation step (between a window's appends, inside its fsync,
	// inside a rotation), with and without rotation. Invariants: every
	// acknowledged window survives recovery; the survivors are a
	// contiguous sequence prefix of the submitted records; and beyond the
	// acknowledged ones at most a prefix of the one window in flight
	// appears.
	total := 0
	for _, size := range windowSizes {
		total += size
	}
	for _, rotate := range []bool{false, true} {
		name := "flat"
		if rotate {
			name = "rotating"
		}
		t.Run(name, func(t *testing.T) {
			dryDir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dryDir, "g.sg"), []byte("base"), 0o644); err != nil {
				t.Fatal(err)
			}
			dry := NewFaultFS(nil)
			if acked, _, err := crashWorkload(dryDir, dry, rotate); err != nil || acked != total {
				t.Fatalf("dry run: acked %d of %d, err %v", acked, total, err)
			}
			steps := dry.Steps()
			if steps < 3+total+len(windowSizes) {
				t.Fatalf("only %d steps in the dry run", steps)
			}

			for n := 1; n <= steps; n++ {
				for _, tear := range []int{0, 7} {
					t.Run(fmt.Sprintf("step%d/tear%d", n, tear), func(t *testing.T) {
						dir := t.TempDir()
						if err := os.WriteFile(filepath.Join(dir, "g.sg"), []byte("base"), 0o644); err != nil {
							t.Fatal(err)
						}
						ffs := NewFaultFS(nil)
						ffs.CrashAt(n, tear)
						acked, inFlight, _ := crashWorkload(dir, ffs, rotate)
						if !ffs.Crashed() {
							t.Fatalf("crash at step %d never fired", n)
						}

						base := filepath.Join(dir, "g.sg")
						fp, err := FingerprintFile(nil, base)
						if err != nil {
							t.Fatal(err)
						}
						l, rec, err := Open(base+".wal", fp, Options{})
						if err != nil {
							t.Fatalf("recovery open: %v", err)
						}
						defer l.Close()

						if rec.Discarded && acked > 0 {
							t.Fatalf("chain with %d acked batches discarded", acked)
						}
						// Survivors are a contiguous sequence prefix of real
						// submissions — no phantom, reordered, or corrupt batch.
						for i, b := range rec.Batches {
							if b.Seq != uint64(i+1) || !opsEqual(b.Ops, []Op{windowOp(i)}) {
								t.Fatalf("batch %d: seq %d, ops %+v", i, b.Seq, b.Ops)
							}
						}
						// Acknowledged windows all survived; only records of the
						// window in flight may appear beyond them.
						if got := len(rec.Batches); got < acked || got > acked+inFlight {
							t.Fatalf("acked %d (+%d in flight), recovered %d", acked, inFlight, got)
						}
						// The recovered chain accepts new appends.
						if seq, err := appendSync(l, []Op{{U: 9, V: 9}}); err != nil || seq != uint64(len(rec.Batches)+1) {
							t.Fatalf("append after recovery: seq %d err %v", seq, err)
						}
					})
				}
			}
		})
	}
}
