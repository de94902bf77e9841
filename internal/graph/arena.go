package graph

// An Arena is a read-only byte region backing a stored graph. On platforms
// with mmap it is a page-aligned, read-only memory mapping of the file —
// the literal rendering of Sage's App-Direct configuration, where the graph
// is a read-only structure consumed in place on NVRAM (§2): the offsets,
// edges, and weights slices handed to the traversal layer alias the mapping
// directly and no byte of graph data is ever copied into the heap. Where
// mmap is unavailable (or the caller asks for a private copy) the arena is
// an 8-byte-aligned heap buffer filled by a single read.
//
// Arenas are immutable after creation; Close releases the mapping (or the
// buffer) exactly once. Any slice aliased out of a mapped arena becomes
// invalid at Close — the owning Dataset ties graph lifetime to arena
// lifetime for exactly this reason.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"unsafe"
)

// hostLittleEndian reports whether typed views can alias little-endian file
// bytes directly. On big-endian hosts every view decodes into a heap copy.
var hostLittleEndian = func() bool {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 1)
	return buf[0] == 1
}()

// Arena is a read-only byte region, either a memory mapping of a file or an
// aligned heap buffer. The zero value is not meaningful; use OpenArena.
type Arena struct {
	data   []byte
	mapped bool // data came from mmap and must be munmapped
	closed atomic.Bool
}

// OpenArena opens path as a read-only arena. When copy is false and the
// platform supports it, the file is memory-mapped; otherwise the contents
// are read into an 8-byte-aligned heap buffer.
func OpenArena(path string, copy bool) (*Arena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Arena{data: nil}, nil
	}
	if !copy && mmapSupported {
		data, err := mmapFile(f, size)
		if err == nil {
			return &Arena{data: data, mapped: true}, nil
		}
		// Fall through to the heap path on mapping failure (e.g. a
		// filesystem without mmap support).
	}
	data := alignedBytes(size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("graph: reading %s: %w", path, err)
	}
	return &Arena{data: data}, nil
}

// Bytes returns the full region. The slice is read-only: for mapped arenas
// the pages are mapped PROT_READ and writing through it faults.
//
//sage:arena-view
func (a *Arena) Bytes() []byte { return a.data }

// Mapped reports whether the arena is a live memory mapping (as opposed to
// a private heap copy).
func (a *Arena) Mapped() bool { return a.mapped }

// Close releases the mapping or buffer. Closing twice is an error; using
// slices aliased from a mapped arena after Close faults.
func (a *Arena) Close() error {
	if a.closed.Swap(true) {
		return fmt.Errorf("graph: arena already closed")
	}
	data := a.data
	a.data = nil
	if a.mapped {
		return munmap(data)
	}
	return nil
}

// alignedBytes allocates a byte slice of the given length whose base
// address is 8-byte aligned, so typed views can alias it like a mapping.
// (A plain make([]byte) only guarantees byte alignment.)
func alignedBytes(n int64) []byte {
	words := make([]uint64, (n+7)/8)
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// aligned8 reports whether b's base address permits 8-byte typed views.
func aligned8(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// WordsLE views b (little-endian words of T's width) as a []T. On
// little-endian hosts with aligned input the view aliases b with no copy;
// otherwise it decodes into a fresh slice. forceCopy requests the decoded
// form regardless (the WithCopy open path).
//
//sage:arena-view
func WordsLE[T uint64 | uint32 | int32](b []byte, forceCopy bool) []T {
	size := int(unsafe.Sizeof(T(0)))
	k := len(b) / size
	if k == 0 {
		return nil
	}
	if hostLittleEndian && aligned8(b) && !forceCopy {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), k)
	}
	out := make([]T, k)
	for i := range out {
		if size == 8 {
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return out
}
