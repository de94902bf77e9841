package store

// Create's failure paths, driven through wal.FaultFS: a full disk, a
// failing fsync, and a crash at every step of the commit protocol must
// each leave the file at path as it was or as the complete new container,
// never a hybrid, and clean up the temp file whenever the process lives
// to do so.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/wal"
)

// createFixture writes the old container at dir/c.sg and returns its
// path, its bytes, and the dataset whose container replaces it.
func createFixture(t *testing.T) (path string, old []byte, next *Dataset) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "c.sg")
	if err := Create(nil, path, NewDataset(testGraphs()["unweighted"], nil), ""); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, old, NewDataset(testGraphs()["weighted"], nil)
}

// tempFiles lists Create's temp files beside path.
func tempFiles(t *testing.T, path string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(filepath.Dir(path), ".sage-create-*"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestCreateFailureKeepsOldFile: under a short write and under a failing
// fsync, Create returns the injected error, leaves the old file
// byte-identical, and removes its temp file.
func TestCreateFailureKeepsOldFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*wal.FaultFS)
		is   func(error) bool
	}{
		{"disk-full", func(fs *wal.FaultFS) { fs.SetWriteLimit(16) }, wal.IsNoSpace},
		{"fsync", func(fs *wal.FaultFS) { fs.SetSyncError(true) }, wal.IsInjectedSync},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, old, next := createFixture(t)
			fs := wal.NewFaultFS(nil)
			tc.arm(fs)
			if err := Create(fs, path, next, ""); !tc.is(err) {
				t.Fatalf("Create = %v, want the injected %s error", err, tc.name)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("old container changed by a failed Create (%v)", err)
			}
			if tmps := tempFiles(t, path); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
		})
	}
}

// TestCreateCrashEveryStep: a crash at any step of Create leaves path
// holding either the old bytes or the complete new container, with at
// most one temp file beside it.
func TestCreateCrashEveryStep(t *testing.T) {
	path, _, next := createFixture(t)
	dry := wal.NewFaultFS(nil)
	if err := Create(dry, path, next, ""); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	steps := dry.Steps()
	if steps < 4 { // write, fsync, rename, directory sync
		t.Fatalf("dry run took %d steps", steps)
	}

	for n := 1; n <= steps; n++ {
		for _, tear := range []int{0, 7, 1 << 20} {
			t.Run(fmt.Sprintf("step%d/tear%d", n, tear), func(t *testing.T) {
				path, old, next := createFixture(t)
				fs := wal.NewFaultFS(nil)
				fs.CrashAt(n, tear)
				// The directory sync is best-effort, so a crash there is
				// the one Create does not report.
				if err := Create(fs, path, next, ""); !fs.Crashed() || err != nil && err != wal.ErrCrashed {
					t.Fatalf("Create = %v after a crash at step %d", err, n)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, old) && !bytes.Equal(got, want) {
					t.Fatalf("path holds %d bytes: neither the old container nor the new one", len(got))
				}
				if tmps := tempFiles(t, path); len(tmps) > 1 {
					t.Fatalf("temp files left behind: %v", tmps)
				}
			})
		}
	}
}
