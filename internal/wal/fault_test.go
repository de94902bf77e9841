package wal

// The crash model itself: what a FaultFS crash leaves of files that were
// closed or renamed before the power died.

import (
	"os"
	"path/filepath"
	"testing"
)

// writeClosed creates name on fs, writes data, optionally syncs, and
// closes it.
func writeClosed(t *testing.T, fs *FaultFS, name string, data []byte, sync bool) {
	t.Helper()
	f, err := fs.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, name string) int64 {
	t.Helper()
	info, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestCloseWithoutSyncLosesBytes: closing a file does not make its bytes
// durable, so a crash after the close tears them like an open file's.
func TestCloseWithoutSyncLosesBytes(t *testing.T) {
	for _, tear := range []int{0, 7} {
		dir := t.TempDir()
		name := filepath.Join(dir, "f")
		fs := NewFaultFS(nil)
		fs.CrashAt(2, tear) // step 1 is the write; step 2 the next mutation
		writeClosed(t, fs, name, make([]byte, 10), false)
		if err := fs.SyncDir(dir); err != ErrCrashed {
			t.Fatalf("tear %d: SyncDir = %v, want ErrCrashed", tear, err)
		}
		if got := fileSize(t, name); got != int64(tear) {
			t.Fatalf("tear %d: %d bytes survive a close without sync, want %d", tear, got, tear)
		}
	}
}

// TestReopenKeepsBytesUnsynced: reopening a file closed without a sync
// does not make its bytes durable either.
func TestReopenKeepsBytesUnsynced(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	fs := NewFaultFS(nil)
	fs.CrashAt(2, 0)
	writeClosed(t, fs, name, make([]byte, 10), false)
	f, err := fs.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fs.SyncDir(dir); err != ErrCrashed {
		t.Fatalf("SyncDir = %v, want ErrCrashed", err)
	}
	if got := fileSize(t, name); got != 0 {
		t.Fatalf("%d unsynced bytes survive a reopen and a crash", got)
	}
}

// TestCloseAfterSyncKeepsBytes: a synced file owes the crash nothing.
func TestCloseAfterSyncKeepsBytes(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	fs := NewFaultFS(nil)
	fs.CrashAt(3, 0)
	writeClosed(t, fs, name, make([]byte, 10), true)
	if err := fs.SyncDir(dir); err != ErrCrashed {
		t.Fatalf("SyncDir = %v, want ErrCrashed", err)
	}
	if got := fileSize(t, name); got != 10 {
		t.Fatalf("%d bytes of a synced file survive, want 10", got)
	}
}

// TestRenameCarriesUnsyncedBytes: a crash at the rename leaves both names
// as they were; after a rename, the file's unsynced bytes are torn under
// its new name, and a removed file is no longer touched.
func TestRenameCarriesUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")

	// Crash at the rename (step 2): nothing moves, and src is torn.
	fs := NewFaultFS(nil)
	fs.CrashAt(2, 0)
	writeClosed(t, fs, src, make([]byte, 10), false)
	if err := fs.Rename(src, dst); err != ErrCrashed {
		t.Fatalf("Rename = %v, want ErrCrashed", err)
	}
	if got := fileSize(t, src); got != 0 {
		t.Fatalf("src holds %d unsynced bytes after the crash", got)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("a crashed rename created dst: %v", err)
	}

	// Crash after the rename: the torn file is dst.
	dir = t.TempDir()
	src, dst = filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs = NewFaultFS(nil)
	fs.CrashAt(3, 4)
	writeClosed(t, fs, src, make([]byte, 10), false)
	if err := fs.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != ErrCrashed {
		t.Fatalf("SyncDir = %v, want ErrCrashed", err)
	}
	if got := fileSize(t, dst); got != 4 {
		t.Fatalf("dst holds %d bytes, want the 4-byte torn fragment", got)
	}

	// A removed file leaves the crash nothing to tear, even when a new
	// file takes its name.
	dir = t.TempDir()
	name := filepath.Join(dir, "f")
	fs = NewFaultFS(nil)
	fs.CrashAt(3, 0)
	writeClosed(t, fs, name, make([]byte, 10), false)
	if err := fs.Remove(name); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, []byte("written elsewhere"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != ErrCrashed {
		t.Fatalf("SyncDir = %v, want ErrCrashed", err)
	}
	if got := fileSize(t, name); got != int64(len("written elsewhere")) {
		t.Fatalf("a crash tore %s after it was removed and rewritten: %d bytes", name, got)
	}
}
