package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzBase is the container generation FuzzOpen's logs are opened for.
var fuzzBase = Fingerprint{Size: 4096, CRC: 0x5a5a5a5a}

// seedLog writes sampleBatches through a real log for base and returns
// the file it left.
func seedLog(f *testing.F, base Fingerprint) []byte {
	walPath := filepath.Join(f.TempDir(), "g.sg.wal")
	l, _, err := Open(walPath, base, Options{})
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
	data, err := os.ReadFile(walPath)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpen feeds arbitrary bytes to recovery as the log file. Open must
// never fail or panic on a healthy disk whatever it finds; what it
// recovers must be bytes that were really there — each batch re-encodes
// to the record it was decoded from, so nothing is sized by a length
// field the input cannot back; and recovery must be a fixed point — a
// second Open of what the first left behind finds the same batches and
// nothing torn.
func FuzzOpen(f *testing.F) {
	valid := seedLog(f, fuzzBase)
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), 9, 0, 0, 0, 0xde, 0xad)) // torn tail
	f.Add(seedLog(f, Fingerprint{Size: 1, CRC: 2}))           // stale
	f.Add(chainedHeader(valid, 2, 1, 0))                      // later segment of a rotated log
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		walPath := filepath.Join(t.TempDir(), "g.sg.wal")
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
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
			if from < headerSize || b.EndOff > int64(len(data)) || !bytes.Equal(data[from:b.EndOff], enc) {
				t.Fatalf("batch %d (seq %d, end %d) is not in the input", i, b.Seq, b.EndOff)
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
