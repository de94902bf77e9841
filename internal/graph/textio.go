package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Text serialization in the Ligra "AdjacencyGraph" format used by the
// paper's code base and most shared-memory graph frameworks:
//
//	AdjacencyGraph
//	<n>
//	<m>
//	<n offsets>
//	<m edges>
//
// The weighted variant ("WeightedAdjacencyGraph") appends m integer
// weights. Reading accepts both.

// WriteText serializes any adjacency view in the Ligra adjacency-graph
// text format, streaming its lists through a.Slice as Sections does.
func WriteText(w io.Writer, a Adj) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	header := "AdjacencyGraph"
	if a.Weighted() {
		header = "WeightedAdjacencyGraph"
	}
	n := a.NumVertices()
	if _, err := fmt.Fprintf(bw, "%s\n%d\n%d\n", header, n, a.NumEdges()); err != nil {
		return err
	}
	off := uint64(0)
	for v := range n {
		if _, err := fmt.Fprintln(bw, off); err != nil {
			return err
		}
		off += uint64(a.Degree(v))
	}
	var s Scratch
	for v := range n {
		nghs, _ := a.Slice(v, 0, math.MaxUint32, &s)
		for _, e := range nghs {
			if _, err := fmt.Fprintln(bw, e); err != nil {
				return err
			}
		}
	}
	for v := range n { // ws is nil throughout on unweighted graphs
		_, ws := a.Slice(v, 0, math.MaxUint32, &s)
		for _, wt := range ws {
			if _, err := fmt.Fprintln(bw, wt); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadText parses a Ligra adjacency-graph text stream. The declared n
// and m are validated against the number of input bytes actually
// remaining (discoverable for in-memory readers exposing Len) before any
// array allocation, so a corrupt header yields an error instead of a
// multi-gigabyte allocation attempt.
func ReadText(r io.Reader) (*Graph, error) {
	remaining := int64(-1) // unknown
	if lr, ok := r.(interface{ Len() int }); ok {
		remaining = int64(lr.Len())
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	next := func() (string, error) {
		for sc.Scan() {
			tok := sc.Text()
			if tok != "" {
				return tok, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	sc.Split(bufio.ScanWords)

	header, err := next()
	if err != nil {
		return nil, err
	}
	weighted := false
	switch header {
	case "AdjacencyGraph":
	case "WeightedAdjacencyGraph":
		weighted = true
	default:
		return nil, fmt.Errorf("graph: unknown text header %q", header)
	}
	readUint := func() (uint64, error) {
		tok, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.ParseUint(tok, 10, 64)
	}
	nv, err := readUint()
	if err != nil {
		return nil, fmt.Errorf("graph: vertex count: %w", err)
	}
	m, err := readUint()
	if err != nil {
		return nil, fmt.Errorf("graph: edge count: %w", err)
	}
	if nv > math.MaxUint32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds uint32", nv)
	}
	// Every offset, edge, and weight needs at least two input bytes (a
	// digit and a separator), so a sized input bounds the plausible n+m.
	entries := nv + m
	if weighted {
		entries += m
	}
	if nv > math.MaxInt64/4 || m > math.MaxInt64/4 {
		return nil, fmt.Errorf("graph: implausible counts n=%d m=%d", nv, m)
	}
	if remaining >= 0 && int64(entries) > remaining/2+1 {
		return nil, fmt.Errorf("graph: header claims n=%d m=%d but only %d bytes follow",
			nv, m, remaining)
	}
	g := &Graph{n: uint32(nv), m: m}
	g.offsets = make([]uint64, nv+1)
	for v := uint64(0); v < nv; v++ {
		off, err := readUint()
		if err != nil {
			return nil, fmt.Errorf("graph: offset %d: %w", v, err)
		}
		g.offsets[v] = off
	}
	g.offsets[nv] = m
	if nv > 0 && g.offsets[0] != 0 {
		// A nonzero base would leave edges[0:offsets[0]] unreachable and
		// the degree sum short of m.
		return nil, fmt.Errorf("graph: offsets start at %d, want 0", g.offsets[0])
	}
	g.edges = make([]uint32, m)
	for i := uint64(0); i < m; i++ {
		e, err := readUint()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		if e >= nv {
			return nil, fmt.Errorf("graph: edge target %d out of range", e)
		}
		g.edges[i] = uint32(e)
	}
	if weighted {
		g.weights = make([]int32, m)
		for i := uint64(0); i < m; i++ {
			tok, err := next()
			if err != nil {
				return nil, fmt.Errorf("graph: weight %d: %w", i, err)
			}
			wt, err := strconv.ParseInt(tok, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: weight %d: %w", i, err)
			}
			g.weights[i] = int32(wt)
		}
	}
	// Validate monotone offsets.
	for v := uint64(0); v < nv; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	return g, nil
}
