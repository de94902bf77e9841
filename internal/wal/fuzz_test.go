package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzBase is the container generation FuzzOpen's chains are opened for.
var fuzzBase = Fingerprint{Size: 4096, CRC: 0x5a5a5a5a}

// seedChain writes sampleBatches through a real log for base — under a
// cap that seals the first two records into <path>.1 when rotate is set —
// and returns the files it left: the active segment and the sealed one
// (nil without rotation).
func seedChain(f *testing.F, base Fingerprint, rotate bool) (active, sealed []byte) {
	walPath := filepath.Join(f.TempDir(), "g.sg.wal")
	opts := Options{}
	if rotate {
		opts.SegmentBytes = headerSize + recordLen(sampleBatches()[0]) + recordLen(sampleBatches()[1])
	}
	l, _, err := Open(walPath, base, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range sampleBatches() {
		if _, err := appendSync(l, b); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	if active, err = os.ReadFile(walPath); err != nil {
		f.Fatal(err)
	}
	if rotate {
		if sealed, err = os.ReadFile(SegmentPath(walPath, 1)); err != nil {
			f.Fatal(err)
		}
	}
	return active, sealed
}

// FuzzOpen feeds arbitrary bytes to recovery as the active segment and,
// when sealed is non-empty, as sealed segment 1 of the same chain. Open
// must never fail or panic on a healthy disk whatever it finds; what it
// recovers must be bytes that were really there — each batch re-encodes
// to the record it was decoded from, so nothing is sized by a length
// field the input cannot back; and recovery must be a fixed point — a
// second Open of what the first left behind finds the same batches and
// nothing torn.
func FuzzOpen(f *testing.F) {
	valid, _ := seedChain(f, fuzzBase, false)
	f.Add(valid, []byte(nil))
	f.Add(append(bytes.Clone(valid), 9, 0, 0, 0, 0xde, 0xad), []byte(nil)) // torn tail
	stale, _ := seedChain(f, Fingerprint{Size: 1, CRC: 2}, false)
	f.Add(stale, []byte(nil))
	active2, sealed1 := seedChain(f, fuzzBase, true)
	f.Add(active2, sealed1) // a two-segment chain
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, active, sealed []byte) {
		walPath := filepath.Join(t.TempDir(), "g.sg.wal")
		if err := os.WriteFile(walPath, active, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(sealed) > 0 {
			if err := os.WriteFile(SegmentPath(walPath, 1), sealed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{FS: NewFaultFS(nil)}
		l, rec, err := Open(walPath, fuzzBase, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		for i, b := range rec.Batches {
			enc := encodeRecord(b.Seq, b.Ops)
			from := b.EndOff - int64(len(enc))
			// Which file a segment index names depends on the headers (an
			// active header claiming index 1 condemns the sealed file), so
			// either input may be the source.
			found := false
			for _, src := range [][]byte{active, sealed} {
				if from >= headerSize && b.EndOff <= int64(len(src)) && bytes.Equal(src[from:b.EndOff], enc) {
					found = true
				}
			}
			if !found {
				t.Fatalf("batch %d (seq %d, seg %d, end %d) is not in the input", i, b.Seq, b.Seg, b.EndOff)
			}
		}

		l2, again, err := Open(walPath, fuzzBase, opts)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer l2.Close()
		if again.TornBytes != 0 || again.Discarded || len(again.Batches) != len(rec.Batches) {
			t.Fatalf("second open: %d batches (first: %d), torn %d, discarded %v",
				len(again.Batches), len(rec.Batches), again.TornBytes, again.Discarded)
		}
		for i, b := range again.Batches {
			if b.Seq != rec.Batches[i].Seq || !opsEqual(b.Ops, rec.Batches[i].Ops) {
				t.Fatalf("second open: batch %d is seq %d %+v, was seq %d %+v",
					i, b.Seq, b.Ops, rec.Batches[i].Seq, rec.Batches[i].Ops)
			}
		}
	})
}
