package wal

// The filesystem seam. Every byte the WAL reads or writes goes through
// the FS interface, and so does every byte of the container writer
// (store.Create, which compaction calls), so tests can substitute a
// fault-injecting implementation (FaultFS) that simulates short writes,
// fsync errors, full disks, and crashes at arbitrary points of either
// write path — the failure modes a durability layer exists to survive,
// none of which a healthy CI disk produces on its own.

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the slice of filesystem behavior the WAL and the container
// writer depend on.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename moves oldpath to newpath, replacing any file there.
	Rename(oldpath, newpath string) error
	// Stat describes name.
	Stat(name string) (os.FileInfo, error)
	// SyncDir flushes the directory entry metadata of dir, making
	// creates and removals within it durable.
	SyncDir(dir string) error
}

// File is the slice of *os.File behavior the WAL uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	// Sync flushes written data to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	Close() error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Remove(name string) error              { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	// Some filesystems cannot fsync a directory handle (EINVAL); the
	// entry change itself still lands there, so directory-sync failure is
	// not propagated as a durability error.
	_ = d.Sync()
	return d.Close()
}
