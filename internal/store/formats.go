package store

// The built-in formats, registered in sniffing order (most specific magic
// first, the loose edge-list heuristic last).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"sage/internal/compress"
	"sage/internal/graph"
)

// Registry names of the built-in formats.
const (
	FormatBinary   = "bin"      // v2 section container (CSR or compressed)
	FormatAdj      = "adj"      // Ligra AdjacencyGraph text
	FormatEdgeList = "edgelist" // whitespace edge-list text
)

func init() {
	Register(&Format{
		Name:       FormatBinary,
		Doc:        "Sage v2 binary container: mmap-able CSR or byte-compressed sections",
		Extensions: []string{".sg", ".bin"},
		Sniff:      sniffMagic(graph.MagicV2),
		Decode:     decodeBinary,
		Encode:     encodeBinary,
	})
	Register(&Format{
		Name:       FormatAdj,
		Doc:        "Ligra AdjacencyGraph / WeightedAdjacencyGraph text",
		Extensions: []string{".adj", ".ligra"},
		Sniff: func(prefix []byte) bool {
			return bytes.HasPrefix(prefix, []byte("AdjacencyGraph")) ||
				bytes.HasPrefix(prefix, []byte("WeightedAdjacencyGraph"))
		},
		Decode: decodeAdj,
		Encode: encodeAdj,
	})
	Register(&Format{
		Name:       FormatEdgeList,
		Doc:        "whitespace edge list (u v [w] per line, # comments)",
		Extensions: []string{".el", ".edges", ".txt"},
		Sniff:      sniffEdgeList,
		Decode:     decodeEdgeList,
		Encode:     encodeEdgeList,
	})
}

// sniffMagic matches a little-endian uint64 magic at offset 0.
func sniffMagic(magic uint64) func([]byte) bool {
	return func(prefix []byte) bool {
		return len(prefix) >= 8 && binary.LittleEndian.Uint64(prefix) == magic
	}
}

// decodeBinary decodes the v2 container; the dataset's arrays alias the
// arena (zero-copy on little-endian hosts).
func decodeBinary(a *graph.Arena) (*Dataset, bool, error) {
	secs, err := graph.ParseContainer(a.Bytes())
	if err != nil {
		return nil, false, err
	}
	h, err := graph.ParseHeader(secs)
	if err != nil {
		return nil, false, err
	}
	if h.Compressed() {
		cg, err := compress.CGraphFromSections(secs, h, false)
		if err != nil {
			return nil, false, err
		}
		return &Dataset{cg: cg}, true, nil
	}
	csr, err := graph.CSRFromSections(secs, h, false)
	if err != nil {
		return nil, false, err
	}
	return &Dataset{csr: csr}, true, nil
}

// encodeBinary writes the v2 container for either representation — the
// first format in which compressed graphs persist at all.
func encodeBinary(w io.Writer, d *Dataset) error {
	if d.csr != nil {
		return graph.WriteContainer(w, d.csr.Sections())
	}
	return graph.WriteContainer(w, d.cg.Sections())
}

func decodeAdj(a *graph.Arena) (*Dataset, bool, error) {
	g, err := graph.ReadText(bytes.NewReader(a.Bytes()))
	if err != nil {
		return nil, false, err
	}
	return &Dataset{csr: g}, false, nil
}

func encodeAdj(w io.Writer, d *Dataset) error {
	if d.csr == nil {
		return fmt.Errorf("%w: the Ligra text format stores only CSR graphs (use %q)",
			ErrCompressed, FormatBinary)
	}
	return d.csr.WriteText(w)
}
