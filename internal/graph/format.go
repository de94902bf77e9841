package graph

// The v2 binary container: a section-table format that stores every graph
// representation — uncompressed CSR and the byte-compressed CGraph alike —
// as a set of independently addressable, 8-byte-aligned sections:
//
//	magic    uint64  "SAGEGRV2" (little-endian words throughout)
//	nsec     uint64
//	table    nsec × { kind uint64, offset uint64, length uint64 }
//	sections each starting at an 8-byte-aligned file offset, zero-padded
//
// Alignment is what makes the container mmap-friendly: a page-aligned
// mapping of the file yields 8-byte-aligned section bases, so the typed
// views in arena.go can alias the offsets/edges/weights arrays in place.
// The section table (rather than a fixed layout) is what lets compressed
// graphs persist: a CGraph simply stores different sections.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// MagicV2 identifies the v2 container ("SAGEGRV2" as big-endian byte
// values of a little-endian word, matching the v1 convention).
const MagicV2 = uint64(0x5341474547525632)

// Section kinds. A file carries either the CSR sections (offsets, edges,
// optionally weights) or the compressed sections (cdegrees, cvtxoff,
// cdata), always alongside the header.
const (
	SecHeader   = uint64(1) // n, m, flags, blockSize (4 uint64 words)
	SecOffsets  = uint64(2) // CSR offsets, (n+1) × uint64
	SecEdges    = uint64(3) // CSR edges, m × uint32
	SecWeights  = uint64(4) // CSR weights, m × int32
	SecCDegrees = uint64(5) // CGraph degrees, n × uint32
	SecCVtxOff  = uint64(6) // CGraph per-vertex byte offsets, (n+1) × uint64
	SecCData    = uint64(7) // CGraph encoded blocks, raw bytes
)

// Header flag bits.
const (
	FlagWeighted   = uint64(1 << 0)
	FlagCompressed = uint64(1 << 1)
)

// Header is the decoded header section.
type Header struct {
	N         uint32
	M         uint64
	Flags     uint64
	BlockSize uint32
}

// Weighted reports the weighted flag.
func (h Header) Weighted() bool { return h.Flags&FlagWeighted != 0 }

// Compressed reports the compressed flag.
func (h Header) Compressed() bool { return h.Flags&FlagCompressed != 0 }

// Section is one container section to be written: a kind, a byte length,
// and a streaming writer that must produce exactly Len bytes. Sections are
// streamed (not materialized) so writing a multi-GB graph never doubles it
// in memory.
type Section struct {
	Kind    uint64
	Len     int64
	WriteTo func(w io.Writer) error
}

// HeaderSection builds the header section for the given shape.
func HeaderSection(h Header) Section {
	return Section{Kind: SecHeader, Len: 32, WriteTo: func(w io.Writer) error {
		var buf [32]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(h.N))
		binary.LittleEndian.PutUint64(buf[8:], h.M)
		binary.LittleEndian.PutUint64(buf[16:], h.Flags)
		binary.LittleEndian.PutUint64(buf[24:], uint64(h.BlockSize))
		_, err := w.Write(buf[:])
		return err
	}}
}

// ArraySection builds a section serializing xs as little-endian words.
func ArraySection[T uint32 | int32 | uint64](kind uint64, xs []T) Section {
	return Section{Kind: kind, Len: int64(len(xs)) * int64(unsafe.Sizeof(T(0))), WriteTo: func(w io.Writer) error {
		ww := &wordWriter{w: w}
		put(ww, xs...)
		return ww.flush()
	}}
}

// BytesSection builds a raw byte section.
func BytesSection(kind uint64, b []byte) Section {
	return Section{Kind: kind, Len: int64(len(b)),
		WriteTo: func(w io.Writer) error { _, err := w.Write(b); return err }}
}

// alignUp rounds x up to the next multiple of 8.
func alignUp(x int64) int64 { return (x + 7) &^ 7 }

// WriteContainer writes the v2 container with the given sections, in
// order, each at an 8-byte-aligned offset. The section layout is fully
// determined by the inputs, so identical sections produce byte-identical
// files (the round-trip guarantee the tests pin).
func WriteContainer(w io.Writer, secs []Section) error {
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint64(hdr, MagicV2)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(secs)))
	offs, _ := layout(secs)
	for i, s := range secs {
		hdr = binary.LittleEndian.AppendUint64(hdr, s.Kind)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(offs[i]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.Len))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var pad [8]byte
	pos := int64(len(hdr))
	for i, s := range secs {
		if offs[i] > pos {
			if _, err := w.Write(pad[:offs[i]-pos]); err != nil {
				return err
			}
			pos = offs[i]
		}
		if err := s.WriteTo(w); err != nil {
			return err
		}
		pos += s.Len
	}
	// Trailing pad so the file length is a multiple of 8 (keeps appended
	// containers alignable and makes truncation detectable).
	if end := alignUp(pos); end > pos {
		if _, err := w.Write(pad[:end-pos]); err != nil {
			return err
		}
	}
	return nil
}

// layout returns each section's aligned offset and the container's total
// length (a multiple of 8).
func layout(secs []Section) (offs []int64, size int64) {
	size = alignUp(int64(16 + 24*len(secs)))
	offs = make([]int64, len(secs))
	for i, s := range secs {
		offs[i] = size
		size = alignUp(size + s.Len)
	}
	return offs, size
}

// EncodeContainer is WriteContainer into memory: one exactly-sized,
// 8-byte-aligned heap buffer that ParseContainer and the typed views read
// back in place, as they would a mapping.
func EncodeContainer(secs []Section) ([]byte, error) {
	_, size := layout(secs)
	buf := bytes.NewBuffer(alignedBytes(size)[:0])
	err := WriteContainer(buf, secs)
	return buf.Bytes(), err
}

// ParseContainer validates the container framing in b and returns the
// section byte regions keyed by kind. The regions alias b.
func ParseContainer(b []byte) (map[uint64][]byte, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("graph: container too short (%d bytes)", len(b))
	}
	if got := binary.LittleEndian.Uint64(b); got != MagicV2 {
		return nil, fmt.Errorf("graph: bad container magic %#x", got)
	}
	nsec := binary.LittleEndian.Uint64(b[8:])
	const maxSections = 64
	if nsec > maxSections {
		return nil, fmt.Errorf("graph: implausible section count %d", nsec)
	}
	tableEnd := 16 + 24*int64(nsec)
	if tableEnd > int64(len(b)) {
		return nil, fmt.Errorf("graph: truncated section table")
	}
	secs := make(map[uint64][]byte, nsec)
	for i := int64(0); i < int64(nsec); i++ {
		base := 16 + 24*i
		kind := binary.LittleEndian.Uint64(b[base:])
		off := binary.LittleEndian.Uint64(b[base+8:])
		length := binary.LittleEndian.Uint64(b[base+16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("graph: section %d misaligned at %d", kind, off)
		}
		if off > uint64(len(b)) || length > uint64(len(b))-off {
			return nil, fmt.Errorf("graph: section %d [%d, +%d) outside file of %d bytes",
				kind, off, length, len(b))
		}
		if _, dup := secs[kind]; dup {
			return nil, fmt.Errorf("graph: duplicate section %d", kind)
		}
		secs[kind] = b[off : off+length]
	}
	return secs, nil
}

// ParseHeader decodes and validates the mandatory header section.
func ParseHeader(secs map[uint64][]byte) (Header, error) {
	hb, ok := secs[SecHeader]
	if !ok || len(hb) != 32 {
		return Header{}, fmt.Errorf("graph: missing or malformed header section")
	}
	n := binary.LittleEndian.Uint64(hb)
	if n > math.MaxUint32 {
		return Header{}, fmt.Errorf("graph: vertex count %d exceeds uint32", n)
	}
	bs := binary.LittleEndian.Uint64(hb[24:])
	if bs > math.MaxUint32 {
		return Header{}, fmt.Errorf("graph: block size %d exceeds uint32", bs)
	}
	return Header{
		N:         uint32(n),
		M:         binary.LittleEndian.Uint64(hb[8:]),
		Flags:     binary.LittleEndian.Uint64(hb[16:]),
		BlockSize: uint32(bs),
	}, nil
}

// Sections returns the CSR container sections of any adjacency view
// (header, offsets, edges, weights when present), streamed: offsets are
// the running degree sum, edges and weights come from a.Slice vertex by
// vertex through one reused buffer. A stored CSR graph writes the same
// bytes from its arrays in bulk, 1.6x faster for an RMAT-18 Create.
func Sections(a Adj) []Section {
	n := a.NumVertices()
	h := Header{N: n, M: a.NumEdges()}
	if a.Weighted() {
		h.Flags |= FlagWeighted
	}
	secs := []Section{
		HeaderSection(h),
		{Kind: SecOffsets, Len: 8 * (int64(n) + 1), WriteTo: func(w io.Writer) error {
			ww, off := &wordWriter{w: w}, uint64(0)
			put(ww, off)
			for v := range n {
				off += uint64(a.Degree(v))
				put(ww, off)
			}
			return ww.flush()
		}},
		listSection(SecEdges, a, false),
		listSection(SecWeights, a, true),
	}
	if g, ok := a.(*Graph); ok {
		secs[1], secs[2] = ArraySection(SecOffsets, g.offsets), ArraySection(SecEdges, g.edges)
		secs[3] = ArraySection(SecWeights, g.weights)
	}
	if !h.Weighted() {
		return secs[:3]
	}
	return secs
}

// listSection streams every vertex's list, neighbor ids or their weights,
// in vertex order as m little-endian 4-byte words.
func listSection(kind uint64, a Adj, weights bool) Section {
	return Section{Kind: kind, Len: 4 * int64(a.NumEdges()), WriteTo: func(w io.Writer) error {
		ww := &wordWriter{w: w}
		var s Scratch
		for v := range a.NumVertices() {
			nghs, ws := a.Slice(v, 0, math.MaxUint32, &s)
			if weights {
				put(ww, ws...)
			} else {
				put(ww, nghs...)
			}
		}
		return ww.flush()
	}}
}

// CSRFromSections assembles a CSR graph from parsed container sections.
// With forceCopy false (and a little-endian host) the offsets, edges, and
// weights slices alias the section bytes — zero-copy over the arena.
func CSRFromSections(secs map[uint64][]byte, h Header, forceCopy bool) (*Graph, error) {
	ob, eb := secs[SecOffsets], secs[SecEdges]
	if uint64(len(ob)) != 8*(uint64(h.N)+1) {
		return nil, fmt.Errorf("graph: offsets section is %d bytes, want %d for n=%d",
			len(ob), 8*(uint64(h.N)+1), h.N)
	}
	if uint64(len(eb)) != 4*h.M {
		return nil, fmt.Errorf("graph: edges section is %d bytes, want %d for m=%d",
			len(eb), 4*h.M, h.M)
	}
	var weights []int32
	if h.Weighted() {
		wb, ok := secs[SecWeights]
		if !ok || uint64(len(wb)) != 4*h.M {
			return nil, fmt.Errorf("graph: weighted flag set but weights section is %d bytes, want %d",
				len(wb), 4*h.M)
		}
		weights = WordsLE[int32](wb, forceCopy)
	}
	return FromParts(h.N, h.M, WordsLE[uint64](ob, forceCopy), WordsLE[uint32](eb, forceCopy), weights)
}

// FromParts assembles a CSR graph from pre-built arrays (typically views
// over an arena) after validating the structural invariants that index
// computations rely on: slice lengths match n and m, and offsets are
// monotone with offsets[n] == m. Per-edge content (targets in range,
// sortedness) is not scanned here — that is Validate's job and would fault
// in every page of a lazily mapped file.
func FromParts(n uint32, m uint64, offsets []uint64, edges []uint32, weights []int32) (*Graph, error) {
	if uint64(len(offsets)) != uint64(n)+1 {
		return nil, fmt.Errorf("graph: %d offsets for n=%d", len(offsets), n)
	}
	if uint64(len(edges)) != m {
		return nil, fmt.Errorf("graph: %d edges for m=%d", len(edges), m)
	}
	if weights != nil && uint64(len(weights)) != m {
		return nil, fmt.Errorf("graph: %d weights for m=%d", len(weights), m)
	}
	if offsets[0] != 0 {
		// A nonzero base would make edges[0:offsets[0]] unreachable dead
		// payload and the degree sum disagree with m.
		return nil, fmt.Errorf("graph: offsets start at %d, want 0", offsets[0])
	}
	if offsets[n] != m {
		return nil, fmt.Errorf("graph: offsets end %d != m %d", offsets[n], m)
	}
	for v := uint32(0); v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	return &Graph{n: n, m: m, offsets: offsets, edges: edges, weights: weights}, nil
}
