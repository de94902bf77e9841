package wal

// Randomized crash-recovery: for several seeded workloads, enumerate
// every mutation step of the append path, kill the filesystem at each
// one (with and without a torn unsynced fragment surviving), and verify
// that recovery with a healthy filesystem always yields an exact prefix
// of the acknowledged history — never a reordered, corrupted, or
// phantom batch. Acknowledged batches must all survive (SyncAlways
// acks only after fsync); at most the one in-flight batch may appear
// beyond them (crash after the bytes reached the platter but before
// the ack was returned).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randBatches derives a deterministic workload from seed.
func randBatches(seed int64) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]Op, 2+rng.Intn(4))
	for i := range batches {
		ops := make([]Op, 1+rng.Intn(5))
		for j := range ops {
			ops[j] = Op{
				U:   rng.Uint32() % 64,
				V:   rng.Uint32() % 64,
				W:   int32(rng.Intn(100) - 50),
				Del: rng.Intn(4) == 0,
			}
		}
		batches[i] = ops
	}
	return batches
}

// runWorkload opens a fresh segment on fs and appends batches until one
// fails, returning how many were acknowledged. openErr distinguishes a
// crash during Open itself.
func runWorkload(dir string, fs *FaultFS, batches [][]Op) (acked int, openErr error) {
	base := filepath.Join(dir, "g.sg")
	fp, err := FingerprintFile(nil, base)
	if err != nil {
		return 0, err
	}
	l, _, err := Open(base+".wal", fp, Options{FS: fs})
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

func TestCrashRecoveryEveryStep(t *testing.T) {
	trials := 0
	for seed := int64(1); seed <= 6; seed++ {
		batches := randBatches(seed)

		// Dry run: count the mutation steps of the full workload.
		dryDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dryDir, "g.sg"), []byte("base"), 0o644); err != nil {
			t.Fatal(err)
		}
		dry := NewFaultFS(nil)
		if acked, err := runWorkload(dryDir, dry, batches); err != nil || acked != len(batches) {
			t.Fatalf("seed %d dry run: acked %d err %v", seed, acked, err)
		}
		steps := dry.Steps()
		if steps < 3+2*len(batches) {
			t.Fatalf("seed %d: only %d steps for %d batches", seed, steps, len(batches))
		}

		for n := 1; n <= steps; n++ {
			for _, tear := range []int{0, 7, 1 << 20} {
				trials++
				t.Run(fmt.Sprintf("seed%d/step%d/tear%d", seed, n, tear), func(t *testing.T) {
					dir := t.TempDir()
					if err := os.WriteFile(filepath.Join(dir, "g.sg"), []byte("base"), 0o644); err != nil {
						t.Fatal(err)
					}
					ffs := NewFaultFS(nil)
					ffs.CrashAt(n, tear)
					acked, _ := runWorkload(dir, ffs, batches)
					if !ffs.Crashed() {
						t.Fatalf("crash at step %d never fired", n)
					}
					if acked == len(batches) {
						t.Fatalf("all %d batches acked despite crash at step %d", acked, n)
					}

					// "Reboot": recover the segment on a healthy filesystem.
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
					// A torn header (crash before the first batch was ever
					// acked) may leave the segment unreadable; discarding it
					// is then correct — no durability promise existed yet.
					if rec.Discarded && acked > 0 {
						t.Fatalf("segment with %d acked batches discarded", acked)
					}
					got := len(rec.Batches)
					if got < acked || got > acked+1 {
						t.Fatalf("acked %d, recovered %d", acked, got)
					}
					for i, b := range rec.Batches {
						if b.Seq != uint64(i+1) {
							t.Fatalf("batch %d: seq %d", i, b.Seq)
						}
						if !opsEqual(b.Ops, batches[i]) {
							t.Fatalf("batch %d: got %v want %v", i, b.Ops, batches[i])
						}
					}

					// The recovered segment must be immediately writable,
					// continuing the sequence after the survivors.
					if seq, err := appendSync(l, []Op{{U: 1, V: 2}}); err != nil || seq != uint64(got+1) {
						t.Fatalf("append after recovery: seq %d err %v", seq, err)
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
