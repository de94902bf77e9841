package main

// Output checks. Every run verifies what the program answered against
// the sequential oracles of internal/refalgo — BFS trees, shortest-path
// distances, component labels — and the semi-asymmetric invariant (no
// NVRAM writes) on every run's stats.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"sage/internal/graph"
	"sage/internal/refalgo"
)

const unreached = ^uint32(0)

// bfsLevels derives every vertex's depth from a BFS parent array
// (parents[src] == src, unreached vertices hold ^0). It fails on a parent
// chain that does not end at src.
func bfsLevels(parents []uint32, src uint32) ([]uint32, error) {
	n := len(parents)
	if int(src) >= n || parents[src] != src {
		return nil, fmt.Errorf("parents[src=%d] is not src", src)
	}
	levels := make([]uint32, n)
	for i := range levels {
		levels[i] = unreached
	}
	levels[src] = 0
	var chain []uint32
	for v := range parents {
		if parents[v] == unreached || levels[v] != unreached {
			continue
		}
		chain = chain[:0]
		u := uint32(v)
		for levels[u] == unreached {
			chain = append(chain, u)
			p := parents[u]
			if p == unreached || int(p) >= n || len(chain) > n {
				return nil, fmt.Errorf("vertex %d: parent chain does not reach src %d", v, src)
			}
			u = p
		}
		base := levels[u]
		for i := len(chain) - 1; i >= 0; i-- {
			base++
			levels[chain[i]] = base
		}
	}
	return levels, nil
}

// validateBFS validates a BFS parent array against the reference
// implementation on ref: the same vertices reached, every vertex at its
// true distance, and every tree edge a real edge.
func validateBFS(ref *graph.Graph, src uint32, parents []uint32) error {
	if len(parents) != int(ref.NumVertices()) {
		return fmt.Errorf("bfs: %d parents for %d vertices", len(parents), ref.NumVertices())
	}
	levels, err := bfsLevels(parents, src)
	if err != nil {
		return fmt.Errorf("bfs: %w", err)
	}
	want := refalgo.BFSDistances(ref, src)
	for v := range want {
		if levels[v] != want[v] {
			return fmt.Errorf("bfs from %d: vertex %d at depth %d, reference says %d", src, v, levels[v], want[v])
		}
		if p := parents[v]; p != unreached && p != uint32(v) && !adjacent(ref.Neighbors(uint32(v)), p) {
			return fmt.Errorf("bfs from %d: tree edge (%d,%d) is not in the graph", src, p, v)
		}
	}
	return nil
}

// validateWBFS checks integral-weight shortest-path distances against
// the reference Dijkstra on ref.
func validateWBFS(ref *graph.Graph, src uint32, dist []uint32) error {
	want := refalgo.Dijkstra(ref, src)
	if len(dist) != len(want) {
		return fmt.Errorf("wbfs: %d distances for %d vertices", len(dist), len(want))
	}
	for v, w := range want {
		got := int64(dist[v])
		if dist[v] == unreached {
			got = math.MaxInt64
		}
		if got != w {
			return fmt.Errorf("wbfs from %d: vertex %d at distance %d, reference says %d", src, v, got, w)
		}
	}
	return nil
}

// digest32 is the CRC-32 of a []uint32 result (distances, labels).
func digest32(xs []uint32) uint32 {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], x)
	}
	return crc32.ChecksumIEEE(buf)
}

// runBody is the part of a run response the deep checks decode.
type runBody struct {
	Generation uint64   `json:"generation"`
	Summary    string   `json:"summary"`
	Value      []uint32 `json:"value"`
	Stats      struct {
		NVRAMWrites int64 `json:"nvram_writes"`
	} `json:"stats"`
}

func decodeRunBody(body []byte) (*runBody, error) {
	var rb runBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return nil, fmt.Errorf("decoding run response: %w", err)
	}
	return &rb, nil
}
