package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenSegment is a one-record active segment as written by the commit
// before the log became single-writer: the 48-byte header for
// goldenBase, then one record (seq 1) holding goldenOps. The on-disk
// format is a compatibility surface — existing chains must keep
// replaying — so a change to these bytes is a format version bump, not a
// test update.
const goldenSegment = "" +
	"5341474557414c32" + "02000000" + "01000000" + // magic, version, segment index
	"8877665544332211" + "ddccbbaa" + "00000000" + // base size, base crc, reserved
	"0000000000000000" + "0000000000000000" + // prev last seq, prev segment length
	"26000000" + "12d75768" + // payload length, payload crc32c
	"0100000000000000" + "02000000" + // seq, nops
	"01000000" + "02000000" + "07000000" + "00" + // insert 1-2 w=7
	"feffffff" + "03000000" + "fdffffff" + "01" // delete 4294967294-3 w=-3

var (
	goldenBase = Fingerprint{Size: 0x1122334455667788, CRC: 0xaabbccdd}
	goldenOps  = []Op{{U: 1, V: 2, W: 7}, {U: 0xfffffffe, V: 3, W: -3, Del: true}}
)

// TestGoldenSegmentBytes pins the header and record encoding both ways:
// what the log writes is byte-for-byte the golden segment, and the golden
// segment replays to the batch it was made from.
func TestGoldenSegmentBytes(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "g.sg.wal")
	l, _, err := Open(walPath, goldenBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.AppendBuffer(goldenOps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(p); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(written); got != goldenSegment {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, goldenSegment)
	}

	golden, err := hex.DecodeString(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(walPath, goldenBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Discarded || rec.TornBytes != 0 || len(rec.Batches) != 1 ||
		rec.Batches[0].Seq != 1 || !opsEqual(rec.Batches[0].Ops, goldenOps) {
		t.Fatalf("golden segment replayed as %+v", rec)
	}
}
