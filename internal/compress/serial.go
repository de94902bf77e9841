package compress

// (De)serialization support for the byte-compressed representation: the
// CGraph's three flat arrays (degrees, per-vertex byte offsets, encoded
// block data) map one-to-one onto v2 container sections, so a compressed
// graph persists without re-encoding and — because every array is flat —
// reopens as views over a memory mapping, exactly like the CSR arrays.

import (
	"fmt"
	"io"
	"math"
	"slices"

	"sage/internal/graph"
)

// Degrees exposes the per-vertex degree array (read-only; len n).
func (c *CGraph) Degrees() []uint32 { return c.degrees }

// VtxOff exposes the per-vertex byte-offset array into Data (read-only;
// len n+1).
func (c *CGraph) VtxOff() []uint64 { return c.vtxOff }

// Data exposes the encoded block data (read-only).
func (c *CGraph) Data() []byte { return c.data }

// Sections returns the byte-compressed container sections of any
// adjacency view at block size bs. A CGraph already stored at bs writes
// its own arrays verbatim: the byte-identical round trip, with no decode.
// Any other view pays Compress's sizing pass (its degrees and n+1 words
// of vertex offsets) and then streams its encoded blocks vertex by vertex
// through one reused buffer, so its heap is O(n), never Θ(m).
func Sections(a graph.Adj, bs int) []graph.Section {
	n := a.NumVertices()
	h := graph.Header{N: n, M: a.NumEdges(), Flags: graph.FlagCompressed, BlockSize: uint32(bs)}
	if a.Weighted() {
		h.Flags |= graph.FlagWeighted
	}
	var degrees []uint32
	var vtxOff []uint64
	var data graph.Section
	if c, ok := a.(*CGraph); ok && c.BlockSize() == bs {
		degrees, vtxOff, data = c.degrees, c.vtxOff, graph.BytesSection(graph.SecCData, c.data)
	} else {
		degrees, vtxOff = sizes(a, uint32(bs))
		data = graph.Section{Kind: graph.SecCData, Len: int64(vtxOff[n]), WriteTo: func(w io.Writer) error {
			var s graph.Scratch
			var buf []byte
			for v := range n {
				nghs, ws := a.Slice(v, 0, math.MaxUint32, &s)
				size := int(vtxOff[v+1] - vtxOff[v])
				buf = slices.Grow(buf[:0], size)[:size]
				encodeVertex(v, nghs, ws, uint32(bs), buf)
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	return []graph.Section{
		graph.HeaderSection(h),
		graph.ArraySection(graph.SecCDegrees, degrees),
		graph.ArraySection(graph.SecCVtxOff, vtxOff),
		data,
	}
}

// FromParts assembles a CGraph from pre-built arrays (typically views over
// an arena), validating the structural invariants the decoder indexes by:
// array lengths match n, vtxOff is monotone and ends at len(data), degrees
// sum to m, and the block size is positive. Encoded block content is not
// re-walked — like the CSR loader, per-edge validation would fault in the
// whole mapping.
func FromParts(n uint32, m uint64, blockSize uint32, weighted bool,
	degrees []uint32, vtxOff []uint64, data []byte) (*CGraph, error) {
	if blockSize == 0 {
		return nil, fmt.Errorf("compress: zero block size")
	}
	if uint64(len(degrees)) != uint64(n) {
		return nil, fmt.Errorf("compress: %d degrees for n=%d", len(degrees), n)
	}
	if uint64(len(vtxOff)) != uint64(n)+1 {
		return nil, fmt.Errorf("compress: %d vertex offsets for n=%d", len(vtxOff), n)
	}
	if vtxOff[n] != uint64(len(data)) {
		return nil, fmt.Errorf("compress: vertex offsets end %d != data length %d",
			vtxOff[n], len(data))
	}
	var sum uint64
	for v := uint32(0); v < n; v++ {
		if vtxOff[v] > vtxOff[v+1] {
			return nil, fmt.Errorf("compress: vertex offsets not monotone at %d", v)
		}
		sum += uint64(degrees[v])
	}
	if sum != m {
		return nil, fmt.Errorf("compress: degrees sum %d != m %d", sum, m)
	}
	return &CGraph{n: n, m: m, blockSize: blockSize, weighted: weighted,
		degrees: degrees, vtxOff: vtxOff, data: data}, nil
}

// CGraphFromSections assembles a CGraph from parsed container sections.
// With forceCopy false (on a little-endian host) the arrays alias the
// section bytes.
func CGraphFromSections(secs map[uint64][]byte, h graph.Header, forceCopy bool) (*CGraph, error) {
	db, vb := secs[graph.SecCDegrees], secs[graph.SecCVtxOff]
	if uint64(len(db)) != 4*uint64(h.N) {
		return nil, fmt.Errorf("compress: degrees section is %d bytes, want %d for n=%d",
			len(db), 4*uint64(h.N), h.N)
	}
	if uint64(len(vb)) != 8*(uint64(h.N)+1) {
		return nil, fmt.Errorf("compress: vertex-offset section is %d bytes, want %d for n=%d",
			len(vb), 8*(uint64(h.N)+1), h.N)
	}
	data, ok := secs[graph.SecCData]
	if !ok {
		return nil, fmt.Errorf("compress: missing data section")
	}
	if forceCopy {
		data = append([]byte(nil), data...)
	}
	return FromParts(h.N, h.M, h.BlockSize, h.Weighted(),
		graph.WordsLE[uint32](db, forceCopy), graph.WordsLE[uint64](vb, forceCopy), data)
}
