package wal

// Segment-rotation coverage: chains build under a SegmentBytes cap and
// replay in order across segment boundaries; recovery cuts a corrupt
// chain at the first bad record even when that lands inside a sealed
// segment; a stale chain (compacted container) is discarded whole; and
// TruncateTo reaches back through the chain. The crash-at-every-step
// enumeration re-runs the single-writer workload with rotation on, so
// every mutation of the seal/rename/reinit dance is a visited crash
// point.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// smallCap fits the 48-byte header plus one single-op record (33 bytes),
// so every batch in the rotation tests gets a segment of its own.
const smallCap = 64

// singleOpBatches is n one-op batches with recognizable fields.
func singleOpBatches(n int) [][]Op {
	batches := make([][]Op, n)
	for i := range batches {
		batches[i] = []Op{{U: uint32(i), V: uint32(i + 1)}}
	}
	return batches
}

func TestRotationChainAppendReplay(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{SegmentBytes: smallCap})
	if err != nil {
		t.Fatal(err)
	}
	batches := singleOpBatches(10)
	for i, b := range batches {
		seq, err := appendSync(l, b)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	st := l.Stats()
	if st.Segments != 10 || st.Rotations != 9 {
		t.Fatalf("chain shape: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 9; j++ {
		if _, err := os.Stat(SegmentPath(walPath, j)); err != nil {
			t.Fatalf("sealed segment %d: %v", j, err)
		}
	}
	if _, err := os.Stat(SegmentPath(walPath, 10)); !os.IsNotExist(err) {
		t.Fatal("active segment leaked into the sealed chain")
	}

	// Replay crosses every boundary in chain order; rotation config is
	// not needed to read a chain back.
	l2, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Discarded || len(rec.Batches) != len(batches) {
		t.Fatalf("chain recovery: %+v", rec)
	}
	for i, b := range rec.Batches {
		if b.Seq != uint64(i+1) || b.Seg != i+1 || !opsEqual(b.Ops, batches[i]) {
			t.Fatalf("batch %d: seq %d seg %d ops %v", i, b.Seq, b.Seg, b.Ops)
		}
	}
	// Sequence numbering continues across the whole chain.
	if seq, err := appendSync(l2, []Op{{U: 99, V: 100}}); err != nil || seq != 11 {
		t.Fatalf("post-recovery append: seq %d err %v", seq, err)
	}
}

func TestRotationRecoveryCutInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{SegmentBytes: smallCap})
	if err != nil {
		t.Fatal(err)
	}
	batches := singleOpBatches(5)
	for _, b := range batches {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of segment 2's record: everything from that
	// record on — segments 2 through 5 — is unreachable; segment 1 must
	// survive and the truncated segment 2 becomes the active again.
	sp := SegmentPath(walPath, 2)
	data, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	data[HeaderSize()+recHeader+2] ^= 0xff
	if err := os.WriteFile(sp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Discarded || rec.TornBytes == 0 {
		t.Fatalf("cut recovery: %+v", rec)
	}
	if len(rec.Batches) != 1 || !opsEqual(rec.Batches[0].Ops, batches[0]) {
		t.Fatalf("recovered %d batches past the cut", len(rec.Batches))
	}
	for j := 2; j <= 4; j++ {
		if _, err := os.Stat(SegmentPath(walPath, j)); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived the cut: %v", j, err)
		}
	}
	if st := l2.Stats(); st.Segments != 2 {
		t.Fatalf("chain shape after cut: %+v", st)
	}
	// The reinstated active continues right after the cut.
	if seq, err := appendSync(l2, []Op{{U: 7, V: 8}}); err != nil || seq != 2 {
		t.Fatalf("append after cut: seq %d err %v", seq, err)
	}
}

func TestRotationStaleChainDiscarded(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("generation-1"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{SegmentBytes: smallCap})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range singleOpBatches(4) {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// "Compaction" rewrites the container: no segment of the old chain
	// may replay onto the new generation.
	if err := os.WriteFile(base, []byte("generation-2: compacted"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp2, err := FingerprintFile(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(walPath, fp2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !rec.Discarded || len(rec.Batches) != 0 {
		t.Fatalf("stale chain not discarded: %+v", rec)
	}
	for j := 1; j <= 3; j++ {
		if _, err := os.Stat(SegmentPath(walPath, j)); !os.IsNotExist(err) {
			t.Fatalf("stale sealed segment %d survived: %v", j, err)
		}
	}
	if l2.Size() != HeaderSize() {
		t.Fatalf("discarded chain not reset: size %d", l2.Size())
	}
	if seq, err := appendSync(l2, []Op{{U: 0, V: 1}}); err != nil || seq != 1 {
		t.Fatalf("append after discard: seq %d err %v", seq, err)
	}
}

func TestTruncateToReachesThroughChain(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{SegmentBytes: smallCap})
	if err != nil {
		t.Fatal(err)
	}
	batches := singleOpBatches(5)
	for _, b := range batches {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep only the first two batches: a cut inside sealed segment 2.
	l2, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.TruncateTo(rec.Batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 || rec.Discarded {
		t.Fatalf("after chain cut: %+v", rec)
	}

	// The zero Batch drops everything: back to a single fresh segment.
	if err := l3.TruncateTo(Batch{}); err != nil {
		t.Fatal(err)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	l4, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Close()
	if len(rec.Batches) != 0 || rec.Discarded {
		t.Fatalf("after full reset: %+v", rec)
	}
	if _, err := os.Stat(SegmentPath(walPath, 1)); !os.IsNotExist(err) {
		t.Fatal("sealed segment survived the full reset")
	}
	if seq, err := appendSync(l4, []Op{{U: 0, V: 1}}); err != nil || seq != 1 {
		t.Fatalf("append after reset: seq %d err %v", seq, err)
	}
}

func TestRotationCrashEveryStep(t *testing.T) {
	// The single-writer crash enumeration with rotation on: every
	// mutation of the seal → rename → reinit dance is a visited crash
	// point, and recovery must still yield an exact acknowledged prefix.
	batches := singleOpBatches(6)

	dryDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dryDir, "g.sg"), []byte("base"), 0o644); err != nil {
		t.Fatal(err)
	}
	dry := NewFaultFS(nil)
	if acked, err := runRotatingWorkload(dryDir, dry, batches); err != nil || acked != len(batches) {
		t.Fatalf("dry run: acked %d err %v", acked, err)
	}
	steps := dry.Steps()
	if steps < 3+2*len(batches)+5 {
		t.Fatalf("only %d steps — rotation never happened in the dry run", steps)
	}

	trials := 0
	for n := 1; n <= steps; n++ {
		for _, tear := range []int{0, 7, 1 << 20} {
			trials++
			t.Run(fmt.Sprintf("step%d/tear%d", n, tear), func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "g.sg"), []byte("base"), 0o644); err != nil {
					t.Fatal(err)
				}
				ffs := NewFaultFS(nil)
				ffs.CrashAt(n, tear)
				acked, _ := runRotatingWorkload(dir, ffs, batches)
				if !ffs.Crashed() {
					t.Fatalf("crash at step %d never fired", n)
				}
				if acked == len(batches) {
					t.Fatalf("all batches acked despite crash at step %d", n)
				}

				base := filepath.Join(dir, "g.sg")
				fp, err := FingerprintFile(nil, base)
				if err != nil {
					t.Fatal(err)
				}
				l, rec, err := Open(base+".wal", fp, Options{SegmentBytes: smallCap})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer l.Close()
				if rec.Discarded && acked > 0 {
					t.Fatalf("chain with %d acked batches discarded", acked)
				}
				got := len(rec.Batches)
				if got < acked || got > acked+1 {
					t.Fatalf("acked %d, recovered %d", acked, got)
				}
				for i, b := range rec.Batches {
					if b.Seq != uint64(i+1) || !opsEqual(b.Ops, batches[i]) {
						t.Fatalf("batch %d: seq %d ops %v", i, b.Seq, b.Ops)
					}
				}
				if seq, err := appendSync(l, []Op{{U: 1, V: 2}}); err != nil || seq != uint64(got+1) {
					t.Fatalf("append after recovery: seq %d err %v", seq, err)
				}
			})
		}
	}
	t.Logf("rotation crash trials: %d", trials)
}

// runRotatingWorkload is runWorkload with the rotation cap on.
func runRotatingWorkload(dir string, fs *FaultFS, batches [][]Op) (acked int, openErr error) {
	base := filepath.Join(dir, "g.sg")
	fp, err := FingerprintFile(nil, base)
	if err != nil {
		return 0, err
	}
	l, _, err := Open(base+".wal", fp, Options{FS: fs, SegmentBytes: smallCap})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	for _, b := range batches {
		if _, err := appendSync(l, b); err != nil {
			break
		}
		acked++
	}
	return acked, nil
}
