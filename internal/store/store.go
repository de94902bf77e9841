// Package store is the storage-aware dataset layer behind sage.Open and
// sage.Create: a registry of on-disk graph formats (the v2 section
// container for CSR and byte-compressed graphs, Ligra adjacency text, and
// whitespace edge lists) with magic-byte and extension sniffing, and a
// Dataset lifecycle that ties a decoded graph to the read-only arena
// backing it.
//
// For the binary container the decoded graph's offsets/edges/weights (or
// degrees/vtxoff/data) slices alias the arena's memory mapping directly —
// the App-Direct "graph lives on NVRAM, consumed in place" configuration
// made literal — so Close must outlive every use of the graph.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"sage/internal/compress"
	"sage/internal/graph"
	"sage/internal/wal"
)

// ErrCompressed is the shared sentinel for operations that require the
// uncompressed CSR representation (text encoders, relabeling, weighting).
var ErrCompressed = errors.New("graph is byte-compressed")

// ErrClosed reports use of a dataset after Close.
var ErrClosed = errors.New("dataset is closed")

// Dataset is a graph plus the storage backing it. An opened dataset
// holds a CSR or a byte-compressed graph; one built by Encoding may hold
// any adjacency view, for Create or Materialize to write.
type Dataset struct {
	adj    graph.Adj
	bs     int          // the block size adj is written at; 0 writes CSR
	arena  *graph.Arena // non-nil when the graph's arrays may alias it
	closed atomic.Bool
}

// Encoding wraps any adjacency view for writing, as CSR when blockSize is
// 0 and byte-compressed at blockSize otherwise, streamed, never rebuilt.
func Encoding(a graph.Adj, blockSize int) *Dataset {
	return &Dataset{adj: a, bs: blockSize}
}

// CSR returns the uncompressed representation, or nil.
func (d *Dataset) CSR() *graph.Graph { g, _ := d.adj.(*graph.Graph); return g }

// CG returns the byte-compressed representation, or nil.
func (d *Dataset) CG() *compress.CGraph { c, _ := d.adj.(*compress.CGraph); return c }

// Adj returns the graph under the shared adjacency interface.
func (d *Dataset) Adj() graph.Adj { return d.adj }

// SizeWords returns the simulated NVRAM footprint of the stored graph —
// the unit the dataset cache budgets in.
func (d *Dataset) SizeWords() int64 {
	return d.adj.(interface{ SizeWords() int64 }).SizeWords()
}

// sections returns the v2 container sections that encode d.
func (d *Dataset) sections() []graph.Section {
	if d.bs != 0 {
		return compress.Sections(d.adj, d.bs)
	}
	return graph.Sections(d.adj)
}

// Materialize encodes d into one exactly-sized heap container and reads
// it back: Create's writer and Open's reader, with memory in place of the
// file. The result is a CSR or byte-compressed dataset independent of
// d's view.
func Materialize(d *Dataset) (*Dataset, error) {
	b, err := graph.EncodeContainer(d.sections())
	if err != nil {
		return nil, err
	}
	return decodeContainer(b)
}

// Mapped reports whether the dataset's arrays alias a live memory mapping
// of the source file.
func (d *Dataset) Mapped() bool { return d.arena != nil && d.arena.Mapped() }

// Closed reports whether Close has been called.
func (d *Dataset) Closed() bool { return d.closed.Load() }

// Close releases the backing arena. After Close, a mapped dataset's graph
// slices are invalid and must not be touched. Closing twice returns
// ErrClosed.
func (d *Dataset) Close() error {
	if d.closed.Swap(true) {
		return ErrClosed
	}
	if d.arena != nil {
		return d.arena.Close()
	}
	return nil
}

// Format describes one on-disk graph format.
type Format struct {
	// Name is the registry key (the -format CLI value).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Extensions are the file extensions (with dot) the format claims when
	// writing and as a sniffing tie-break when reading.
	Extensions []string
	// Sniff reports whether the leading bytes of a file are this format.
	// Sniffers are tried in registry order, most specific first.
	Sniff func(prefix []byte) bool
	// Decode builds a dataset from an opened arena. keepArena reports
	// whether the dataset's arrays may alias the arena (binary formats);
	// when false the caller closes the arena immediately after decoding.
	Decode func(a *graph.Arena) (ds *Dataset, keepArena bool, err error)
	// Encode writes the dataset, or is nil for read-only formats.
	Encode func(w io.Writer, d *Dataset) error
}

// ByName returns the named format.
func ByName(name string) (*Format, error) {
	for _, f := range formats {
		if f.Name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("store: unknown format %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names returns the format names in sniffing order.
func Names() []string {
	out := make([]string, len(formats))
	for i, f := range formats {
		out[i] = f.Name
	}
	return out
}

// Describe returns "name\tdoc" lines for CLI listings.
func Describe() []string {
	out := make([]string, len(formats))
	for i, f := range formats {
		exts := strings.Join(f.Extensions, ",")
		out[i] = fmt.Sprintf("%-10s %s (%s)", f.Name, f.Doc, exts)
	}
	return out
}

// byExtension returns the format claiming path's extension, or nil.
func byExtension(path string) *Format {
	ext := strings.ToLower(filepath.Ext(path))
	if ext == "" {
		return nil
	}
	for _, f := range formats {
		for _, e := range f.Extensions {
			if e == ext {
				return f
			}
		}
	}
	return nil
}

// Detect picks the format for a file from its leading bytes, falling back
// to the path extension when no sniffer claims it.
func Detect(prefix []byte, path string) (*Format, error) {
	for _, f := range formats {
		if f.Sniff != nil && f.Sniff(prefix) {
			return f, nil
		}
	}
	if f := byExtension(path); f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("store: cannot determine the format of %s (known formats: %s)",
		path, strings.Join(Names(), ", "))
}

// OpenOptions configures Open.
type OpenOptions struct {
	// Format overrides sniffing with an explicit registry name.
	Format string
	// Copy forces the heap-resident path: the file is read (not mapped)
	// into an aligned private buffer.
	Copy bool
}

// Open opens the graph stored at path. Binary formats are memory-mapped
// (unless opts.Copy or the platform lacks mmap) with the graph arrays
// aliasing the mapping; text formats are parsed into heap arrays.
func Open(path string, opts OpenOptions) (*Dataset, error) {
	a, err := graph.OpenArena(path, opts.Copy)
	if err != nil {
		return nil, err
	}
	var f *Format
	if opts.Format != "" {
		f, err = ByName(opts.Format)
	} else {
		b := a.Bytes()
		f, err = Detect(b[:min(len(b), 64)], path)
	}
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	ds, keep, err := f.Decode(a)
	if err != nil {
		_ = a.Close()
		return nil, fmt.Errorf("store: %s as %s: %w", path, f.Name, err)
	}
	if keep {
		ds.arena = a
	} else {
		if cerr := a.Close(); cerr != nil {
			_ = ds.Close()
			return nil, cerr
		}
	}
	return ds, nil
}

// Create writes d to path through fsys (nil means wal.OS). The format is
// chosen by explicit name, then by the path extension, then defaults to
// the v2 binary container.
func Create(fsys wal.FS, path string, d *Dataset, formatName string) error {
	if fsys == nil {
		fsys = wal.OS
	}
	var f *Format
	var err error
	switch {
	case formatName != "":
		f, err = ByName(formatName)
		if err != nil {
			return err
		}
	default:
		if f = byExtension(path); f == nil {
			f, err = ByName(FormatBinary)
			if err != nil {
				return err
			}
		}
	}
	if f.Encode == nil {
		return fmt.Errorf("store: format %s is read-only", f.Name)
	}
	// Encode into a temp file and rename into place: a failed encode (an
	// ErrCompressed misuse, a full disk) must never destroy an existing
	// file at path, and readers never observe a half-written graph. O_EXCL
	// and a random name keep concurrent writers apart. A crash before the
	// rename can leave the temp file behind; it is safe to delete.
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, ".sage-create-"+strconv.FormatUint(rand.Uint64(), 36))
	w, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		_ = w.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := f.Encode(bw, d); err != nil {
		return fail(fmt.Errorf("store: encoding %s as %s: %w", path, f.Name, err))
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	// Fsync before the rename: the rename is only atomic on disk if the
	// bytes it points at are durable first. Without this, a crash shortly
	// after Create could leave path referring to a hole.
	if err := w.Sync(); err != nil {
		return fail(err)
	}
	if err := w.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	// Best-effort: the rename is atomic even where the directory cannot
	// be synced.
	fsys.SyncDir(dir)
	return nil
}
