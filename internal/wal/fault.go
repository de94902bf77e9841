package wal

// FaultFS: the crash simulator behind the durability tests, for the log
// and for the container writer alike. It wraps a real filesystem and
// counts every mutation (write, sync, truncate, remove, rename, directory
// sync) as one step; a test arms a crash at step N and replays a
// workload, and when the counter hits N the filesystem "loses power": the
// in-flight operation takes partial effect, every file written since its
// last fsync — open or closed — is cut back to its last fsynced length
// (plus an optional torn fragment of unsynced bytes), and all further
// operations fail with ErrCrashed. Enumerating N over Steps() from a dry
// run visits every crash point of the write path exactly once.
//
// Durability is simulated, not performed: a file's Sync moves its own
// durable offset, which is all a crash consults, and neither Sync nor
// SyncDir reaches the inner filesystem's fsync. The crash model is the
// same, and a crash enumeration runs at memory speed instead of paying
// the host disk's flush per step. A test that needs a real fsync uses OS
// directly.
//
// It also injects the two non-fatal failure modes a durability layer
// must degrade under: sticky fsync errors (SetSyncError) and short
// writes (SetWriteLimit, the ENOSPC shape — the first write that would
// exceed the budget lands partially and errors).

import (
	"errors"
	"io"
	"maps"
	"os"
	"sync"
)

// ErrCrashed is returned by every operation after the armed crash point
// has fired — the process-is-dead phase of a simulated power loss.
var ErrCrashed = errors.New("wal: simulated crash")

// errInjectedSync is the sticky failure installed by SetSyncError.
var errInjectedSync = errors.New("wal: injected fsync error")

// errNoSpace is the injected short-write failure (the ENOSPC shape).
var errNoSpace = errors.New("wal: injected disk full")

// FaultFS is a fault-injecting FS for tests. The zero value is not
// usable; construct with NewFaultFS.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	steps     int // mutation operations performed so far
	crashAt   int // crash when steps reaches this (0 = disarmed)
	tearBytes int // unsynced bytes that survive the crash, per file
	crashed   bool
	syncErr   bool  // injected fsync failure (sticky until cleared)
	budget    int64 // remaining write bytes; -1 = unlimited
	// files holds every open file and every closed one with unsynced
	// bytes, each under its current name.
	files map[*faultFile]string
}

// NewFaultFS wraps inner (nil for the real filesystem).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner, budget: -1, files: map[*faultFile]string{}}
}

// Steps returns the number of mutation operations performed so far. A
// dry run's final count enumerates the workload's crash points.
func (fs *FaultFS) Steps() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.steps
}

// CrashAt arms a crash at the n-th mutation (1-based): that operation
// takes partial effect and everything after it fails with ErrCrashed.
// Pass tear > 0 to let up to that many unsynced bytes survive on each
// open file — the torn-tail case.
func (fs *FaultFS) CrashAt(n, tear int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt, fs.tearBytes = n, tear
}

// Crashed reports whether the armed crash has fired.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// SetSyncError makes every Sync (file and directory) fail until cleared
// — the sticky-EIO disk. Writes keep succeeding; only durability fails.
func (fs *FaultFS) SetSyncError(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncErr = on
}

// SetWriteLimit bounds the bytes all future writes may add (-1 for
// unlimited). The write that would exceed the budget lands partially
// and returns a disk-full error — the ENOSPC short-write shape.
func (fs *FaultFS) SetWriteLimit(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.budget = n
}

// step advances the mutation counter and fires the armed crash,
// reporting (crashNow, alreadyDead). The operation that trips the
// counter sees crashNow and applies its partial effect; later calls see
// alreadyDead.
func (fs *FaultFS) step() (crashNow, dead bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return false, true
	}
	fs.steps++
	if fs.crashAt > 0 && fs.steps >= fs.crashAt {
		fs.crashed = true
		return true, false
	}
	return false, false
}

// mutate is step for an operation that takes no effect at the crash
// step: it returns ErrCrashed, after the power-loss moment, when the
// counter fires or already has.
func (fs *FaultFS) mutate() error {
	crash, dead := fs.step()
	if crash {
		fs.loseUnsynced()
	}
	if crash || dead {
		return ErrCrashed
	}
	return nil
}

// loseUnsynced tears every tracked file down to its durable prefix (plus
// the configured torn fragment) — the power-loss moment.
func (fs *FaultFS) loseUnsynced() {
	fs.mu.Lock()
	files := maps.Clone(fs.files)
	tear := fs.tearBytes
	fs.mu.Unlock()
	for f, name := range files {
		f.tearTo(name, tear)
	}
}

// retrack moves the tracking of the files called name to the name to,
// or ends it when to is "": an unlinked file's bytes belong to no path a
// recovery could read.
func (fs *FaultFS) retrack(name, to string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for f, n := range fs.files {
		if n == name && to == "" {
			delete(fs.files, f)
		} else if n == name {
			fs.files[f] = to
		}
	}
}

// OpenFile opens name; opening is a read of the namespace, not a step.
func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if fs.Crashed() {
		return nil, ErrCrashed
	}
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	if info, err := fs.inner.Stat(name); err == nil {
		size = info.Size()
	}
	ff := &faultFile{fs: fs, f: f, durable: size, size: size}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for g, n := range fs.files {
		if n != name {
			continue
		}
		g.mu.Lock()
		if g.closed {
			// Reopening does not make a closed file's unsynced bytes durable.
			ff.durable = min(ff.durable, g.durable)
			delete(fs.files, g)
		}
		g.mu.Unlock()
	}
	fs.files[ff] = name
	return ff, nil
}

// Remove counts as one step; a crash at this step leaves the file.
func (fs *FaultFS) Remove(name string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	if err := fs.inner.Remove(name); err != nil {
		return err
	}
	fs.retrack(name, "")
	return nil
}

// Rename counts as one step; a crash at this step leaves both names as
// they were. A renamed file's unsynced bytes stay tracked under newpath,
// and the file newpath named before is unlinked.
func (fs *FaultFS) Rename(oldpath, newpath string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	if err := fs.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.retrack(newpath, "")
	fs.retrack(oldpath, newpath)
	return nil
}

// Stat is a pure read — never a step, but dead after a crash.
func (fs *FaultFS) Stat(name string) (os.FileInfo, error) {
	if fs.Crashed() {
		return nil, ErrCrashed
	}
	return fs.inner.Stat(name)
}

// SyncDir counts as one step and honors the injected sync error. The
// simulated directory is always durable, so nothing reaches the inner
// filesystem.
func (fs *FaultFS) SyncDir(dir string) error {
	if err := fs.mutate(); err != nil {
		return err
	}
	fs.mu.Lock()
	bad := fs.syncErr
	fs.mu.Unlock()
	if bad {
		return errInjectedSync
	}
	return nil
}

// faultFile tracks, alongside the real file, how much of it is durable
// (fsynced) versus merely written, so a simulated crash can discard
// exactly the unsynced suffix. Lock order is fs.mu before f.mu.
type faultFile struct {
	fs *FaultFS

	mu      sync.Mutex
	f       File
	durable int64 // fsynced length
	size    int64 // written length
	off     int64 // current file offset
	closed  bool
}

func (f *faultFile) Read(p []byte) (int, error) {
	if f.fs.Crashed() {
		return 0, ErrCrashed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.f.Read(p)
	f.off += int64(n)
	return n, err
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if f.fs.Crashed() {
		return 0, ErrCrashed
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	pos, err := f.f.Seek(offset, whence)
	if err == nil {
		f.off = pos
	}
	return pos, err
}

// Write is one step. At the crash step the write lands in full before
// power dies (the kernel had the page; tearTo decides how much survives
// the lost cache). Under a write budget, the portion that fits lands
// and the rest returns disk-full.
func (f *faultFile) Write(p []byte) (int, error) {
	crash, dead := f.fs.step()
	if dead {
		return 0, ErrCrashed
	}

	f.fs.mu.Lock()
	budget := f.fs.budget
	f.fs.mu.Unlock()
	short := false
	if budget >= 0 {
		if int64(len(p)) > budget {
			p, short = p[:budget], true
		}
		f.fs.mu.Lock()
		f.fs.budget -= int64(len(p))
		f.fs.mu.Unlock()
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, os.ErrClosed
	}
	n, err := f.f.Write(p)
	f.off += int64(n)
	if f.off > f.size {
		f.size = f.off
	}
	f.mu.Unlock()

	if crash {
		f.fs.loseUnsynced()
		return n, ErrCrashed
	}
	if err == nil && short {
		err = errNoSpace
	}
	return n, err
}

// Sync is one step: on success everything written so far is durable, in
// the simulation's bookkeeping only (the inner file is not fsynced).
func (f *faultFile) Sync() error {
	// At the crash step power dies during the fsync: nothing new is
	// promoted to durable.
	if err := f.fs.mutate(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	bad := f.fs.syncErr
	f.fs.mu.Unlock()
	if bad {
		return errInjectedSync
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.durable = f.size
	return nil
}

// Truncate is one step; at the crash step it does not take effect.
func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.mutate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	f.size = size
	if f.durable > size {
		f.durable = size
	}
	return nil
}

// Close is a read-side operation (no step); it does NOT promote written
// bytes to durable — close-without-sync loses data in this model, as on
// a real disk with volatile write cache — so a file closed with unsynced
// bytes stays tracked for the crash to tear.
func (f *faultFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	if f.size <= f.durable {
		delete(f.fs.files, f)
	}
	return f.f.Close()
}

// tearTo applies the crash to this file, now called name: cut it back
// to the durable prefix plus at most tear unsynced bytes. The underlying
// file is manipulated directly — the wrapper is already "dead" to its
// user.
func (f *faultFile) tearTo(name string, tear int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		// The bytes are in the real file; tear them there too.
		keep := f.durable + int64(tear)
		if keep < f.size {
			if g, err := f.fs.inner.OpenFile(name, os.O_RDWR, 0); err == nil {
				g.Truncate(keep)
				_ = g.Close()
			}
		}
		return
	}
	keep := f.durable + int64(tear)
	if keep > f.size {
		keep = f.size
	}
	f.f.Truncate(keep)
	f.size = keep
	f.f.Seek(keep, io.SeekStart)
}

// IsNoSpace reports whether err is the injected disk-full failure.
func IsNoSpace(err error) bool { return errors.Is(err, errNoSpace) }

// IsInjectedSync reports whether err is the injected fsync failure.
func IsInjectedSync(err error) bool { return errors.Is(err, errInjectedSync) }
