// Package compress implements the parallel byte-encoded adjacency format
// that Sage inherits from Ligra+ (§2, §4.2.1): each vertex's sorted
// adjacency list is divided into compression blocks of a fixed number of
// edges; within a block the first neighbor is difference-encoded against
// the vertex id with a signed varint and subsequent neighbors as unsigned
// varint gaps. Each vertex stores a table of per-block byte offsets so
// blocks decode independently and in parallel — the property the graph
// filter relies on (the filter block size must equal the compression
// block size, §4.2.1).
package compress

import (
	"fmt"
	"math"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// DefaultBlockSize is the compression block size used by the experiments
// unless a sweep overrides it; the paper settles on 64 (Appendix D.1).
const DefaultBlockSize = 64

// CGraph is an immutable byte-compressed graph implementing graph.Adj.
// The degrees, block-offset tables, and encoded data all reside in the
// simulated NVRAM region. Weighted graphs interleave a zigzag-varint
// weight after each difference-encoded neighbor, as Ligra+ does [87].
type CGraph struct {
	n         uint32
	m         uint64
	blockSize uint32
	weighted  bool
	//sage:arena
	degrees []uint32
	//sage:arena
	vtxOff []uint64 // byte offset of each vertex's region in data; len n+1
	//sage:arena
	data []byte
}

// Compress encodes any adjacency view with the given block size (edges
// per block): a parallel sizing pass, then a parallel encode pass, both
// reading a.Slice through per-worker scratch. Weighted graphs are
// supported: weights are interleaved per edge.
func Compress(a graph.Adj, blockSize int) *CGraph {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	n, bs := a.NumVertices(), uint32(blockSize)
	degrees, vtxOff := sizes(a, bs)
	data := make([]byte, vtxOff[n])
	var pool graph.ScratchPool
	parallel.ForWorker(int(n), 64, func(w, i int) {
		nghs, ws := a.Slice(uint32(i), 0, math.MaxUint32, pool.Get(w))
		encodeVertex(uint32(i), nghs, ws, bs, data[vtxOff[i]:vtxOff[i+1]])
	})
	return &CGraph{n: n, m: a.NumEdges(), blockSize: bs, weighted: a.Weighted(),
		degrees: degrees, vtxOff: vtxOff, data: data}
}

// sizes is the sizing pass: every vertex's degree, and the byte offset of
// its encoded region at block size bs (len n+1, the last entry the total).
func sizes(a graph.Adj, bs uint32) ([]uint32, []uint64) {
	n := a.NumVertices()
	deg, off := make([]uint32, n), make([]uint64, n+1)
	var pool graph.ScratchPool
	parallel.ForWorker(int(n), 64, func(w, i int) {
		nghs, ws := a.Slice(uint32(i), 0, math.MaxUint32, pool.Get(w))
		deg[i], off[i] = uint32(len(nghs)), uint64(encodedSize(uint32(i), nghs, ws, bs))
	})
	parallel.Scan(off)
	return deg, off
}

// numBlocks returns ceil(deg/blockSize) for vertex v.
//
//sage:hotpath
func (c *CGraph) numBlocks(v uint32) uint32 {
	d := c.degrees[v]
	if d == 0 {
		return 0
	}
	return (d + c.blockSize - 1) / c.blockSize
}

// encodedSize computes the byte length of a vertex's region: the block
// offset table (4 bytes per block) plus the encoded blocks (gaps, with a
// zigzag weight after each neighbor when ws is non-nil).
func encodedSize(v uint32, nghs []uint32, ws []int32, bs uint32) int {
	d := uint32(len(nghs))
	if d == 0 {
		return 0
	}
	nb := int((d + bs - 1) / bs)
	size := 4 * nb
	for b := 0; b < nb; b++ {
		lo := b * int(bs)
		hi := min(lo+int(bs), len(nghs))
		size += varintLen(zigzag(int64(nghs[lo]) - int64(v)))
		if ws != nil {
			size += varintLen(zigzag(int64(ws[lo])))
		}
		for i := lo + 1; i < hi; i++ {
			size += varintLen(uint64(nghs[i] - nghs[i-1]))
			if ws != nil {
				size += varintLen(zigzag(int64(ws[i])))
			}
		}
	}
	return size
}

// encodeVertex writes the block table and encoded blocks into out, which
// must have the exact encodedSize length.
func encodeVertex(v uint32, nghs []uint32, ws []int32, bs uint32, out []byte) {
	d := uint32(len(nghs))
	if d == 0 {
		return
	}
	nb := int((d + bs - 1) / bs)
	pos := 4 * nb
	for b := 0; b < nb; b++ {
		putU32(out[4*b:], uint32(pos))
		lo := b * int(bs)
		hi := min(lo+int(bs), len(nghs))
		pos += putVarint(out[pos:], zigzag(int64(nghs[lo])-int64(v)))
		if ws != nil {
			pos += putVarint(out[pos:], zigzag(int64(ws[lo])))
		}
		for i := lo + 1; i < hi; i++ {
			pos += putVarint(out[pos:], uint64(nghs[i]-nghs[i-1]))
			if ws != nil {
				pos += putVarint(out[pos:], zigzag(int64(ws[i])))
			}
		}
	}
	if pos != len(out) {
		panic(fmt.Sprintf("compress: encoded %d bytes, expected %d", pos, len(out)))
	}
}

// NumVertices implements graph.Adj.
func (c *CGraph) NumVertices() uint32 { return c.n }

// NumEdges implements graph.Adj.
func (c *CGraph) NumEdges() uint64 { return c.m }

// Degree implements graph.Adj.
//
//sage:hotpath
func (c *CGraph) Degree(v uint32) uint32 { return c.degrees[v] }

// Weighted implements graph.Adj.
func (c *CGraph) Weighted() bool { return c.weighted }

// BlockSize implements graph.Adj.
func (c *CGraph) BlockSize() int { return int(c.blockSize) }

// EdgeAddr implements graph.Adj: the simulated address space places the
// degree/offset arrays at [0, 2n) and the byte data (word-granular) after.
//
//sage:hotpath
func (c *CGraph) EdgeAddr(v uint32) int64 {
	return 2*int64(c.n) + int64(c.vtxOff[v]/8)
}

// ScanCost implements graph.Adj: decoding positions [lo, hi) requires
// reading the whole blocks covering the range; partial blocks cost fully.
func (c *CGraph) ScanCost(v uint32, lo, hi uint32) int64 {
	if hi <= lo || c.degrees[v] == 0 {
		return 0
	}
	b0 := lo / c.blockSize
	b1 := (hi - 1) / c.blockSize
	region := c.region(v)
	nb := c.numBlocks(v)
	start := getU32(region[4*b0:])
	var end uint32
	if b1+1 < nb {
		end = getU32(region[4*(b1+1):])
	} else {
		end = uint32(len(region))
	}
	// Block table reads (half a word per block) plus encoded bytes in words.
	return int64(b1-b0+1)/2 + int64(end-start+7)/8
}

// region returns the encoded byte region of v.
//
//sage:arena-view
//sage:hotpath
func (c *CGraph) region(v uint32) []byte {
	return c.data[c.vtxOff[v]:c.vtxOff[v+1]]
}

// DecodeBlockInto decodes the full compression block b of vertex v into
// buf and returns the neighbor slice. The graph filter uses it to fetch
// the edges behind a filter block (§4.2.3: "we immediately decompress the
// entire block and store it locally").
func (c *CGraph) DecodeBlockInto(v, b uint32, buf []uint32) []uint32 {
	if b >= c.numBlocks(v) {
		return buf[:0]
	}
	lo := b * c.blockSize
	return c.decode(v, lo, lo+c.blockSize, buf)
}

// SizeWords reports the simulated NVRAM footprint in words.
func (c *CGraph) SizeWords() int64 {
	return 2*int64(c.n) + int64(len(c.data)+7)/8
}
