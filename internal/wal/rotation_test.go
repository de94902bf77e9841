package wal

// Coverage of the log across container generations and of what a rotated
// log leaves on disk. The log never rotates into a numbered chain; it
// rotates through generations instead — compaction folds it into a new
// container, retires it and opens a fresh one — and the crash enumeration
// visits every step of that with one batch per generation. Files a
// rotating log wrote are never replayed: an active segment whose header
// carries chain fields is discarded as foreign, and a sealed segment
// makes Open refuse, touching nothing, even when its records are
// corrupt. TruncateTo reaches back through any number of records.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"
)

// chainedHeader returns a copy of the log data whose header carries the
// chain fields a rotated log wrote: its segment index and the last
// sequence number and length of the segment before it.
func chainedHeader(data []byte, index uint32, prevSeq, prevLen uint64) []byte {
	out := bytes.Clone(data)
	le := binary.LittleEndian
	le.PutUint32(out[12:], index)
	le.PutUint64(out[32:], prevSeq)
	le.PutUint64(out[40:], prevLen)
	return out
}

func TestRotationCrashEveryStep(t *testing.T) {
	// Six one-record windows, each folded into a container generation of
	// its own: every mutation of the retire → reinit dance is a visited
	// crash point, and recovery must still yield every acknowledged
	// record, folded or replayed. A 1 MiB tear keeps every unsynced byte.
	crashEveryStep(t, []int{1, 1, 1, 1, 1, 1}, 1, []int{0, 7, 1 << 20})
}

func TestRotationRecoveryCutInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	// A rotated chain: sealed segments 1..3 with one record each — the
	// record of segment 2 corrupt — and the active segment 4.
	files := map[string][]byte{}
	for j := 1; j <= 4; j++ {
		seg := chainedHeader(encodeHeader(fp), uint32(j), uint64(j-1), 0)
		rec := encodeRecord(uint64(j), []Op{{U: uint32(j), V: uint32(j + 1)}})
		if j == 2 {
			rec[recHeader+2] ^= 0xff
		}
		path := fmt.Sprintf("%s.%d", walPath, j)
		if j == 4 {
			path = walPath
		}
		files[path] = append(seg, rec...)
		if err := os.WriteFile(path, files[path], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Recovery may not cut the chain at the bad record: that would delete
	// the acknowledged batches after it. Open refuses instead, naming the
	// first sealed segment, and every file stays as it was.
	l, _, err := Open(walPath, fp, Options{})
	if err == nil {
		_ = l.Close()
	}
	if err == nil || !strings.Contains(err.Error(), walPath+".1") {
		t.Fatalf("open of a corrupt chain: %v, want an error naming %s.1", err, walPath)
	}
	for path, want := range files {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the refused open (err %v)", path, err)
		}
	}
}

func TestRotationStaleChainDiscarded(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sampleBatches() {
		if _, err := appendSync(l, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// The active segment of a rotated log whose sealed segments are gone:
	// its records continue a chain that is not there, so none may replay.
	for name, data := range map[string][]byte{
		"later segment": chainedHeader(valid, 3, 7, 200),
		"linked first":  chainedHeader(valid, 1, 4, 0),
		"zero index":    chainedHeader(valid, 0, 0, 0),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(walPath, fp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if !rec.Discarded || len(rec.Batches) != 0 {
				t.Fatalf("chained segment not discarded: %+v", rec)
			}
			if l.Size() != HeaderSize() {
				t.Fatalf("discarded segment not reset: size %d", l.Size())
			}
			if seq, err := appendSync(l, []Op{{U: 0, V: 1}}); err != nil || seq != 1 {
				t.Fatalf("append after discard: seq %d err %v", seq, err)
			}
		})
	}
}

func TestTruncateToReachesThroughChain(t *testing.T) {
	dir := t.TempDir()
	base, fp := newBase(t, dir, []byte("container"))
	walPath := base + ".wal"

	l, _, err := Open(walPath, fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := appendSync(l, []Op{{U: uint32(i), V: uint32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep only the first two batches: a cut three records back.
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
		t.Fatalf("after the cut: %+v", rec)
	}

	// The zero Batch drops everything: back to a fresh header.
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
	if len(rec.Batches) != 0 || rec.Discarded || l4.Size() != HeaderSize() {
		t.Fatalf("after full reset: %+v, size %d", rec, l4.Size())
	}
	if seq, err := appendSync(l4, []Op{{U: 0, V: 1}}); err != nil || seq != 1 {
		t.Fatalf("append after reset: seq %d err %v", seq, err)
	}
}
