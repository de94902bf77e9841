// Package cluster is the scale-out serving tier: a consistent-hash ring
// assigning datasets to replicas, a membership/health layer over the
// replicas' /readyz endpoints, and a router front-end that proxies the
// sage-serve HTTP API (/v1/run, /v1/update, /v1/datasets, ...) to the
// replica owning each dataset.
//
// The tier follows the paper's §5.2 placement result: on a two-socket
// machine, replicating the graph per socket beats one shared copy
// because all NVRAM traffic stays local. Scaled out
// of the box, "socket" becomes "replica process": each dataset lives on
// a small set of replicas (the ring's owners), every replica serves its
// shard from its own local mmap arena, and the router keeps requests on
// owners — no replica ever pulls graph data across the wire. Everything
// the tier needs already existed in-process (immutable mmap datasets,
// stateless run requests, generation-keyed result caches, WAL-durable
// updates); this package only adds placement, health, and proxying.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping dataset names to replica names
// with virtual nodes. Each replica contributes vnodes points on a 64-bit
// hash circle; a dataset is owned by the replicas owning the first
// distinct points at or clockwise from the dataset's hash. A ring over
// one more or one fewer replica therefore moves only the keys adjacent
// to that replica's points (~1/n of the keyspace), never reshuffles the
// rest — the property that keeps replica caches and WAL shards warm
// across a membership change (which is a restart with a new -peers).
//
// Ownership is a pure function of the sorted member set: two rings built
// from the same replicas in any order agree on every key, so a router
// and an offline tool can compute placement independently. A Ring is
// immutable, so concurrent lookups need no locking.
type Ring struct {
	vnodes int
	nodes  []string // sorted member names
	points []ringPoint
}

// ringPoint is one virtual node: its position and owning member index.
type ringPoint struct {
	hash uint64
	node int32
}

// DefaultVNodes balances within a few percent for realistic member
// counts while keeping the point table small; the ±25% balance bound is
// property-tested at this setting.
const DefaultVNodes = 128

// NewRing builds a ring with vnodes virtual nodes per member (<= 0
// selects DefaultVNodes). Empty and duplicate member names are an error.
func NewRing(vnodes int, members ...string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	nodes := append([]string(nil), members...)
	sort.Strings(nodes)
	for i, m := range nodes {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && nodes[i-1] == m {
			return nil, fmt.Errorf("cluster: member %q added twice", m)
		}
	}
	points := make([]ringPoint, 0, len(nodes)*vnodes)
	for i, node := range nodes {
		for v := 0; v < vnodes; v++ {
			h := hashString(node + "#" + strconv.Itoa(v))
			points = append(points, ringPoint{hash: h, node: int32(i)})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		// Ties (vanishingly rare at 64 bits) resolve by member order so
		// ownership stays a pure function of the member set.
		return points[a].node < points[b].node
	})
	return &Ring{vnodes: vnodes, nodes: nodes, points: points}, nil
}

// Members returns the sorted member names.
func (r *Ring) Members() []string { return append([]string(nil), r.nodes...) }

// Owners returns key's replica preference list: up to n distinct members
// in clockwise point order starting at the key's hash. The first entry
// is the primary (the write leader); the rest are the read replicas a
// router fails over to. n beyond the member count is truncated.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	taken := make(map[int32]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.node] {
			taken[p.node] = true
			owners = append(owners, r.nodes[p.node])
		}
	}
	return owners
}

// hashString is FNV-1a 64 strengthened with the murmur3 finalizer: FNV
// alone clusters badly on short sequential labels ("web-1", "web-2"),
// and ring balance is only as good as the avalanche of the point hash.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
