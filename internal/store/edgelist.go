package store

// Whitespace edge-list text: one "u v" (or "u v w") arc per line with '#'
// comment lines — the interchange format of SNAP and most graph corpora.
// Graphs in this repo are symmetric, so the encoder emits each undirected
// edge once (u < v) and the decoder symmetrizes, deduplicates, and drops
// self loops while building. A leading "# sage-edgelist n=<n>" comment
// (written by the encoder, optional on read) pins the vertex count so
// graphs with trailing isolated vertices round-trip; without it n is
// inferred as max endpoint + 1.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sage/internal/graph"
)

// sniffEdgeList accepts files whose first non-blank character is a digit
// or a '#' comment — loose on purpose, which is why it is listed last.
func sniffEdgeList(prefix []byte) bool {
	for _, c := range prefix {
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			continue
		case c == '#' || (c >= '0' && c <= '9'):
			return true
		default:
			return false
		}
	}
	return false
}

func decodeEdgeList(a *graph.Arena) (*Dataset, bool, error) {
	b := a.Bytes()
	g, err := readEdgeList(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, false, err
	}
	return Encoding(g, 0), false, nil
}

func encodeEdgeList(w io.Writer, d *Dataset) error {
	if d.bs != 0 {
		return fmt.Errorf("%w: the edge-list format stores only CSR graphs (use %q)",
			ErrCompressed, FormatBinary)
	}
	g := d.adj
	n := g.NumVertices()
	weighted := g.Weighted()
	wflag := 0
	if weighted {
		wflag = 1
	}
	if _, err := fmt.Fprintf(w, "# sage-edgelist n=%d weighted=%d\n", n, wflag); err != nil {
		return err
	}
	var s graph.Scratch
	for v := range n {
		nghs, ws := g.Slice(v, 0, math.MaxUint32, &s)
		for i, u := range nghs {
			if u < v {
				continue // the (u, v) direction already emitted this edge
			}
			var err error
			if weighted {
				_, err = fmt.Fprintf(w, "%d %d %d\n", v, u, ws[i])
			} else {
				_, err = fmt.Fprintf(w, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// maxPlausibleVertices bounds the vertex count a headerless edge list
// may imply relative to its size in bytes: up to 4M vertices are
// accepted unconditionally, beyond that the file must carry edge text
// roughly proportional to n. Without the bound a 12-byte hostile input
// naming vertex 4e9 would force a multi-gigabyte CSR allocation before
// any edge is read. A "# sage-edgelist n=" header is exempt — it is how
// the encoder round-trips sparse graphs whose vertex count legitimately
// dwarfs their edge text, so declared counts are honored up to uint32
// (the graph then genuinely needs O(n) memory, as it would from any
// format).
func maxPlausibleVertices(size int64) uint64 {
	const floor = 1 << 22
	if size < 0 {
		return math.MaxUint32 // unsized reader: no basis for a bound
	}
	if bound := 4 * uint64(size); bound > floor {
		return bound
	}
	return floor
}

// readEdgeList parses the edge-list text into a symmetrized CSR graph.
// size is the input length in bytes (the plausibility bound's basis), or
// negative when unknown.
func readEdgeList(r io.Reader, size int64) (*graph.Graph, error) {
	maxN := maxPlausibleVertices(size)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		edges    []graph.WEdge
		weighted = -1 // -1 unknown, 0 plain, 1 weighted
		declared = int64(-1)
		maxV     uint32
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			parseEdgeListHeader(line, &declared, &weighted)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("edgelist line %d: %d fields, want 2 or 3", lineNo, len(fields))
		}
		hasW := len(fields) == 3
		switch weighted {
		case -1:
			weighted = 0
			if hasW {
				weighted = 1
			}
		case 0:
			if hasW {
				return nil, fmt.Errorf("edgelist line %d: weight on an unweighted list", lineNo)
			}
		case 1:
			if !hasW {
				return nil, fmt.Errorf("edgelist line %d: missing weight", lineNo)
			}
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgelist line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgelist line %d: %w", lineNo, err)
		}
		var wt int64 = 1
		if hasW {
			if wt, err = strconv.ParseInt(fields[2], 10, 32); err != nil {
				return nil, fmt.Errorf("edgelist line %d: %w", lineNo, err)
			}
		}
		maxV = max(maxV, max(uint32(u), uint32(v)))
		edges = append(edges, graph.WEdge{U: uint32(u), V: uint32(v), W: int32(wt)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var n uint32
	if declared >= 0 {
		if declared > math.MaxUint32 {
			return nil, fmt.Errorf("edgelist: declared n=%d exceeds uint32", declared)
		}
		n = uint32(declared)
		if len(edges) > 0 && uint64(maxV) >= uint64(n) {
			return nil, fmt.Errorf("edgelist: endpoint %d out of range for declared n=%d", maxV, n)
		}
	} else if len(edges) > 0 {
		if maxV == math.MaxUint32 {
			// n = maxV+1 would wrap to 0 and the builder would index out
			// of range; the id space is one too small for this endpoint.
			return nil, fmt.Errorf("edgelist: endpoint %d needs a vertex count beyond uint32", maxV)
		}
		if uint64(maxV)+1 > maxN {
			return nil, fmt.Errorf("edgelist: endpoint %d implies an implausible vertex count for the input size (declare n with a '# sage-edgelist n=' header)", maxV)
		}
		n = maxV + 1
	}
	if weighted == 1 {
		return graph.FromWeightedEdges(n, edges, graph.BuildOpts{Symmetrize: true}), nil
	}
	plain := make([]graph.Edge, len(edges))
	for i, e := range edges {
		plain[i] = graph.Edge{U: e.U, V: e.V}
	}
	return graph.FromEdges(n, plain, graph.BuildOpts{Symmetrize: true}), nil
}

// parseEdgeListHeader extracts n= and weighted= from the sage-edgelist
// comment; other comments are ignored.
func parseEdgeListHeader(line string, declared *int64, weighted *int) {
	if !strings.HasPrefix(line, "# sage-edgelist") {
		return
	}
	for _, tok := range strings.Fields(line[len("# sage-edgelist"):]) {
		if v, ok := strings.CutPrefix(tok, "n="); ok {
			if x, err := strconv.ParseInt(v, 10, 64); err == nil && x >= 0 {
				*declared = x
			}
		}
		if v, ok := strings.CutPrefix(tok, "weighted="); ok {
			switch v {
			case "1":
				*weighted = 1
			case "0":
				*weighted = 0
			}
		}
	}
}
