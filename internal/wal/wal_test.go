package wal

// Unit coverage of the segment format and lifecycle: append/replay round
// trips, torn-tail truncation, fingerprint-based stale-segment discard,
// surgical truncation, and the degraded-disk paths (sticky fsync errors,
// short writes) that the read-only serving mode leans on.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newBase writes a fake container file and fingerprints it.
func newBase(t *testing.T, dir string, contents []byte) (string, Fingerprint) {
	t.Helper()
	path := filepath.Join(dir, "g.sg")
	if err := os.WriteFile(path, contents, 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := FingerprintFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fp
}

// appendSync logs one batch as a window of its own: append, then commit.
func appendSync(l *Log, ops []Op) (seq uint64, err error) {
	p, err := l.AppendBuffer(ops, nil)
	if err != nil {
		return 0, err
	}
	if err := l.Commit(p); err != nil {
		return 0, err
	}
	return p.seq, nil
}

// sampleBatches is a fixed workload exercising every op field.
func sampleBatches() [][]Op {
	return [][]Op{
		{{U: 0, V: 1}, {U: 2, V: 3, W: 7}},
		{{U: 1, V: 2, Del: true}},
		{{U: 4, V: 5, W: -3}, {U: 0, V: 1, Del: true}, {U: 6, V: 7}},
	}
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container-v1"))
	walPath := base + ".wal"

	l, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 0 || rec.Discarded || rec.TornBytes != 0 {
		t.Fatalf("fresh segment recovered %+v", rec)
	}
	batches := sampleBatches()
	for i, b := range batches {
		seq, err := appendSync(l, b)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Batches) != len(batches) {
		t.Fatalf("recovered %d batches, want %d", len(rec.Batches), len(batches))
	}
	for i, b := range rec.Batches {
		if b.Seq != uint64(i+1) || !opsEqual(b.Ops, batches[i]) {
			t.Fatalf("batch %d: got seq %d ops %v, want %v", i, b.Seq, b.Ops, batches[i])
		}
		if b.EndOff <= HeaderSize() {
			t.Fatalf("batch %d: EndOff %d", i, b.EndOff)
		}
	}
	// Sequence numbering continues after recovery.
	if seq, err := appendSync(l2, []Op{{U: 8, V: 9}}); err != nil || seq != uint64(len(batches)+1) {
		t.Fatalf("post-recovery append: seq %d err %v", seq, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := sampleBatches()
	for _, b := range batches {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := l.Size()
	_ = l.Close()

	// A crash mid-append leaves a torn fragment on the tail.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}) // claims 9 payload bytes, has 0
	_ = f.Close()

	l2, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != len(batches) || rec.TornBytes != 6 {
		t.Fatalf("torn recovery: %d batches, %d torn bytes", len(rec.Batches), rec.TornBytes)
	}
	if l2.Size() != goodSize {
		t.Fatalf("torn tail not truncated: size %d want %d", l2.Size(), goodSize)
	}
	_ = l2.Close()
	if info, _ := os.Stat(walPath); info.Size() != goodSize {
		t.Fatalf("file still torn on disk: %d", info.Size())
	}
}

func TestCorruptMiddleRecordTruncatesFromThere(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, _ := Open(walPath, fp, Options{})
	batches := sampleBatches()
	var ends []int64
	for _, b := range batches {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	_ = l.Close()

	// Flip a payload byte of the second record: it and everything after it
	// must be cut off, the first record must survive.
	data, _ := os.ReadFile(walPath)
	data[ends[0]+recHeader+2] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Batches) != 1 || !opsEqual(rec.Batches[0].Ops, batches[0]) {
		t.Fatalf("recovered %d batches", len(rec.Batches))
	}
	if l2.Size() != ends[0] {
		t.Fatalf("size %d, want truncation at %d", l2.Size(), ends[0])
	}
}

func TestFingerprintMismatchDiscardsSegment(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("generation-1"))
	walPath := base + ".wal"

	l, _, _ := Open(walPath, fp, Options{})
	for _, b := range sampleBatches() {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
	}
	_ = l.Close()

	// "Compaction" rewrites the container; the stale segment's records
	// must not replay onto the new generation.
	if err := os.WriteFile(base, []byte("generation-2: compacted"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp2, err := FingerprintFile(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp {
		t.Fatal("fingerprint did not change with the container")
	}
	l2, rec, err := Open(walPath, fp2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !rec.Discarded || len(rec.Batches) != 0 {
		t.Fatalf("stale segment not discarded: %+v", rec)
	}
	if l2.Size() != HeaderSize() {
		t.Fatalf("discarded segment not reset: size %d", l2.Size())
	}
	// The fresh segment serves the new generation.
	if seq, err := appendSync(l2, []Op{{U: 0, V: 1}}); err != nil || seq != 1 {
		t.Fatalf("append after discard: seq %d err %v", seq, err)
	}
}

func TestCorruptHeaderDiscardsSegment(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"
	if err := os.WriteFile(walPath, []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !rec.Discarded || len(rec.Batches) != 0 {
		t.Fatalf("corrupt header not discarded: %+v", rec)
	}
}

func TestLeftoverSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendSync(l, []Op{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	active, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A rotating build sealed its first records into <path>.1: they were
	// acknowledged, so Open may neither replay nor delete them.
	sealedPath := walPath + ".1"
	sealed := []byte("records a rotating build acknowledged")
	if err := os.WriteFile(sealedPath, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err = Open(walPath, fp, Options{})
	if err == nil {
		_ = l.Close()
	}
	if err == nil || !strings.Contains(err.Error(), sealedPath) {
		t.Fatalf("open beside a sealed segment: %v, want an error naming %s", err, sealedPath)
	}
	for path, want := range map[string][]byte{walPath: active, sealedPath: sealed} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the refused open (err %v)", path, err)
		}
	}
}

func TestTruncateToDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, _ := Open(walPath, fp, Options{})
	batches := sampleBatches()
	var ends []int64
	for _, b := range batches {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	if err := l.TruncateTo(Batch{Seq: 1, EndOff: ends[0]}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTo(Batch{Seq: 2, EndOff: ends[1]}); err == nil {
		t.Fatal("TruncateTo past the end accepted")
	}
	_ = l.Close()

	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("recovered %d batches after TruncateTo", len(rec.Batches))
	}
}

func TestStickySyncErrorDegradesAndHeals(t *testing.T) {
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

	// The disk stops fsyncing: appends must fail (the batch cannot be
	// promised durable) and must not leave torn records behind.
	ffs.SetSyncError(true)
	if _, err := appendSync(l, []Op{{U: 1, V: 2}}); !IsInjectedSync(err) {
		t.Fatalf("append under sync failure: %v", err)
	}
	if _, err := appendSync(l, []Op{{U: 2, V: 3}}); !IsInjectedSync(err) {
		t.Fatalf("second append under sync failure: %v", err)
	}

	// The disk heals: the next append succeeds without reopening anything.
	ffs.SetSyncError(false)
	if seq, err := appendSync(l, []Op{{U: 3, V: 4}}); err != nil || seq != 2 {
		t.Fatalf("append after heal: seq %d err %v", seq, err)
	}

	// Replay sees exactly the two successful batches.
	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 ||
		!opsEqual(rec.Batches[0].Ops, []Op{{U: 0, V: 1}}) ||
		!opsEqual(rec.Batches[1].Ops, []Op{{U: 3, V: 4}}) {
		t.Fatalf("recovered %+v", rec.Batches)
	}
}

func TestDiskFullShortWriteDegradesAndHeals(t *testing.T) {
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
	good := l.Size()

	// The disk fills: the record lands partially and the append fails.
	ffs.SetWriteLimit(5)
	if _, err := appendSync(l, []Op{{U: 1, V: 2}}); !IsNoSpace(err) {
		t.Fatalf("append on full disk: %v", err)
	}
	// Space frees: the torn record is cleaned off and the append lands.
	ffs.SetWriteLimit(-1)
	if seq, err := appendSync(l, []Op{{U: 2, V: 3}}); err != nil || seq != 2 {
		t.Fatalf("append after space freed: seq %d err %v", seq, err)
	}
	if l.Size() <= good {
		t.Fatal("second record not appended")
	}

	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 2 || rec.TornBytes != 0 {
		t.Fatalf("recovered %d batches, %d torn", len(rec.Batches), rec.TornBytes)
	}
}

func TestCloseAndRemoveRetiresSegment(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, _ := Open(walPath, fp, Options{})
	if _, err := appendSync(l, []Op{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.CloseAndRemove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("segment survives retirement: %v", err)
	}
	// A fresh open after retirement starts an empty generation.
	_, rec, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 0 || rec.Discarded {
		t.Fatalf("retired segment recovered %+v", rec)
	}
}

func TestFingerprintDistinguishesLargeFiles(t *testing.T) {
	// Files bigger than twice the fingerprint span hash only a prefix and
	// suffix; a middle-only change is intentionally not caught (compaction
	// rewrites change the size or the CSR header/edge tail in practice),
	// but prefix, suffix, and size changes must be.
	dir := t.TempDir()
	big := bytes.Repeat([]byte{0xab}, 3*fingerprintSpan)
	path, fp := newBase(t, dir, big)

	big[0] ^= 1
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}
	fp2, _ := FingerprintFile(nil, path)
	if fp2 == fp {
		t.Fatal("prefix change not detected")
	}
	big[0] ^= 1
	big[len(big)-1] ^= 1
	os.WriteFile(path, big, 0o644)
	fp3, _ := FingerprintFile(nil, path)
	if fp3 == fp {
		t.Fatal("suffix change not detected")
	}
	big[len(big)-1] ^= 1
	os.WriteFile(path, append(big, 0), 0o644)
	fp4, _ := FingerprintFile(nil, path)
	if fp4 == fp {
		t.Fatal("size change not detected")
	}
}
