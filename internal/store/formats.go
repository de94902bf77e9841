package store

// The built-in formats, in sniffing order (most specific magic first, the
// loose edge-list heuristic last).

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

// formats is the registry, in sniffing order.
var formats = []*Format{
	{
		Name:       FormatBinary,
		Doc:        "Sage v2 binary container: mmap-able CSR or byte-compressed sections",
		Extensions: []string{".sg", ".bin"},
		Sniff:      sniffMagic(graph.MagicV2),
		Decode:     decodeBinary,
		Encode:     encodeBinary,
	},
	{
		Name:       FormatAdj,
		Doc:        "Ligra AdjacencyGraph / WeightedAdjacencyGraph text",
		Extensions: []string{".adj", ".ligra"},
		Sniff: func(prefix []byte) bool {
			return bytes.HasPrefix(prefix, []byte("AdjacencyGraph")) ||
				bytes.HasPrefix(prefix, []byte("WeightedAdjacencyGraph"))
		},
		Decode: decodeAdj,
		Encode: encodeAdj,
	},
	{
		Name:       FormatEdgeList,
		Doc:        "whitespace edge list (u v [w] per line, # comments)",
		Extensions: []string{".el", ".edges", ".txt"},
		Sniff:      sniffEdgeList,
		Decode:     decodeEdgeList,
		Encode:     encodeEdgeList,
	},
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
	ds, err := decodeContainer(a.Bytes())
	return ds, err == nil, err
}

// decodeContainer decodes the v2 container in b, aliasing it.
func decodeContainer(b []byte) (*Dataset, error) {
	secs, err := graph.ParseContainer(b)
	if err != nil {
		return nil, err
	}
	h, err := graph.ParseHeader(secs)
	if err != nil {
		return nil, err
	}
	if h.Compressed() {
		cg, err := compress.CGraphFromSections(secs, h, false)
		if err != nil {
			return nil, err
		}
		return Encoding(cg, cg.BlockSize()), nil
	}
	csr, err := graph.CSRFromSections(secs, h, false)
	if err != nil {
		return nil, err
	}
	return Encoding(csr, 0), nil
}

// encodeBinary writes the v2 container for either representation — the
// first format in which compressed graphs persist at all.
func encodeBinary(w io.Writer, d *Dataset) error {
	return graph.WriteContainer(w, d.sections())
}

func decodeAdj(a *graph.Arena) (*Dataset, bool, error) {
	g, err := graph.ReadText(bytes.NewReader(a.Bytes()))
	if err != nil {
		return nil, false, err
	}
	return Encoding(g, 0), false, nil
}

func encodeAdj(w io.Writer, d *Dataset) error {
	if d.bs != 0 {
		return fmt.Errorf("%w: the Ligra text format stores only CSR graphs (use %q)",
			ErrCompressed, FormatBinary)
	}
	return graph.WriteText(w, d.adj)
}
