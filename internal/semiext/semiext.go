// Package semiext implements a semi-external-memory graph engine in the
// style of GridGraph [Table 3]: vertex state lives in memory while edges
// are streamed from a simulated block device in a 2-D grid layout. It
// stands in for the SSD-based systems the paper compares against
// (FlashGraph, Mosaic, GridGraph), whose structural cost — page-granular
// I/O over every edge per pass, with no direction optimization — is what
// Table 3 measures Sage against.
package semiext

import (
	"math"
	"sync/atomic"

	"sage/internal/costmodel"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// The device page and its cost are the cost model's, so the semi-external
// baseline and the flash/CSD profile price a page the same way.
const (
	PageWords       = costmodel.PageWords
	DefaultPageCost = costmodel.DefaultPageCost
)

// Device counts simulated page I/O.
type Device struct {
	pagesRead atomic.Int64
	PageCost  int64
}

// ReadPages charges n page reads.
func (d *Device) ReadPages(n int64) { d.pagesRead.Add(n) }

// PagesRead reports the total pages read.
func (d *Device) PagesRead() int64 { return d.pagesRead.Load() }

// Cost reports the simulated I/O cost in DRAM-word units.
func (d *Device) Cost() int64 { return d.pagesRead.Load() * d.PageCost }

// Grid is the 2-D partitioned edge layout: vertices are divided into Q
// intervals; cell (i, j) stores the arcs from interval i to interval j.
type Grid struct {
	N        uint32
	Q        uint32
	interval uint32
	cells    [][]graph.Edge // Q*Q cells, row-major
	Dev      *Device
}

// NewGrid partitions g into a Q×Q grid over a fresh device.
func NewGrid(g *graph.Graph, q uint32) *Grid {
	n := g.NumVertices()
	if q == 0 {
		q = 4
	}
	gr := &Grid{N: n, Q: q, interval: (n + q - 1) / q, Dev: &Device{PageCost: DefaultPageCost}}
	gr.cells = make([][]graph.Edge, q*q)
	for u := uint32(0); u < n; u++ {
		iu := u / gr.interval
		for _, v := range g.Neighbors(u) {
			iv := v / gr.interval
			c := iu*q + iv
			gr.cells[c] = append(gr.cells[c], graph.Edge{U: u, V: v})
		}
	}
	return gr
}

// cellPages returns the page count of one cell (two words per edge).
func (g *Grid) cellPages(c uint32) int64 {
	words := int64(len(g.cells[c])) * 2
	return (words + PageWords - 1) / PageWords
}

// streamCells applies fn to every edge of the cells whose source interval
// is marked active (GridGraph's selective scheduling), charging page
// reads for each streamed cell. Cells stream in parallel; fn must be
// thread-safe.
func (g *Grid) streamCells(activeInterval func(i uint32) bool, fn func(u, v uint32)) {
	var work []uint32
	for i := uint32(0); i < g.Q; i++ {
		if !activeInterval(i) {
			continue
		}
		for j := uint32(0); j < g.Q; j++ {
			c := i*g.Q + j
			if len(g.cells[c]) > 0 {
				work = append(work, c)
			}
		}
	}
	parallel.For(len(work), 1, func(k int) {
		c := work[k]
		g.Dev.ReadPages(g.cellPages(c))
		for _, e := range g.cells[c] {
			fn(e.U, e.V)
		}
	})
}

// BFS runs a semi-external BFS from src, returning hop distances. Every
// round streams all cells whose source interval contains an active
// vertex — the page-granular cost that dooms high-diameter graphs on
// these systems.
func (g *Grid) BFS(src uint32) []uint32 {
	const inf = ^uint32(0)
	dist := make([]uint32, g.N)
	parallel.Fill(dist, inf)
	dist[src] = 0
	activeFlag := make([]bool, g.Q)
	activeFlag[src/g.interval] = true
	round := uint32(0)
	for {
		nextActive := make([]int32, g.Q)
		var updates atomic.Int64
		g.streamCells(func(i uint32) bool { return activeFlag[i] },
			func(u, v uint32) {
				if atomic.LoadUint32(&dist[u]) == round &&
					parallel.CASUint32(&dist[v], inf, round+1) {
					atomic.StoreInt32(&nextActive[v/g.interval], 1)
					updates.Add(1)
				}
			})
		if updates.Load() == 0 {
			return dist
		}
		for i := range activeFlag {
			activeFlag[i] = nextActive[i] != 0
		}
		round++
	}
}

// SSSP runs semi-external Bellman-Ford, returning distances.
func (g *Grid) SSSP(src uint32, weight func(u, v uint32) int32) []int64 {
	const inf = int64(math.MaxInt64 / 2)
	dist := make([]int64, g.N)
	parallel.Fill(dist, inf)
	dist[src] = 0
	for round := uint32(0); round < g.N; round++ {
		var updates atomic.Int64
		g.streamCells(func(uint32) bool { return true }, func(u, v uint32) {
			du := atomic.LoadInt64(&dist[u])
			if du < inf && parallel.WriteMinInt64(&dist[v], du+int64(weight(u, v))) {
				updates.Add(1)
			}
		})
		if updates.Load() == 0 {
			break
		}
	}
	return dist
}

// Connectivity runs label propagation over the grid to a fixpoint.
func (g *Grid) Connectivity() []uint32 {
	labels := make([]uint32, g.N)
	parallel.For(int(g.N), 0, func(i int) { labels[i] = uint32(i) })
	for {
		var updates atomic.Int64
		g.streamCells(func(uint32) bool { return true }, func(u, v uint32) {
			if parallel.WriteMinUint32(&labels[v], atomic.LoadUint32(&labels[u])) {
				updates.Add(1)
			}
		})
		if updates.Load() == 0 {
			return labels
		}
	}
}

// PageRank runs iters edge-streaming iterations.
func (g *Grid) PageRank(iters int) []float64 {
	n := int(g.N)
	rank := make([]float64, n)
	deg := make([]uint32, n)
	parallel.Fill(rank, 1/float64(n))
	g.streamCells(func(uint32) bool { return true }, func(u, _ uint32) {
		atomic.AddUint32(&deg[u], 1)
	})
	const d = 0.85
	for it := 0; it < iters; it++ {
		acc := make([]uint64, n) // float64 bits
		g.streamCells(func(uint32) bool { return true }, func(u, v uint32) {
			parallel.AddFloat64(&acc[v], rank[u]/float64(deg[u]))
		})
		parallel.For(n, 0, func(i int) {
			rank[i] = (1-d)/float64(n) + d*parallel.LoadFloat64(&acc[i])
		})
	}
	return rank
}
