// Package chash implements consistent hashing with virtual nodes — the
// placement scheme of the original MemFS, and the baseline the paper's
// §V-C argues against for MemFSS. It exists so the repository can measure
// the trade-off the paper describes: consistent hashing needs either
// eager data movement or stale-ring lookups when membership changes,
// while HRW (internal/hrw) gives each key of a departing node one next
// node on its rank list (the paper probes that list lazily; MemFSS moves
// the key straight there); and weighting a ring requires proportional virtual-node counts,
// which multiplies memory and rebalance cost (the Redis-process argument
// of §V-C).
//
// See BenchmarkAblationPlacementSchemes in the repository root.
package chash

import (
	"fmt"
	"sort"
)

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring. Construct with New; immutable afterwards
// (membership changes build a new ring, as with hrw.Placer).
type Ring struct {
	points []point
	vnodes map[string]int
}

// hash64 is the same FNV-1a/splitmix construction the hrw package uses,
// so scheme comparisons measure placement structure, not hash quality.
func hash64(a, b string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// New builds a ring with vnodes virtual nodes per physical node.
func New(nodes []string, vnodes int) (*Ring, error) {
	weights := make(map[string]int, len(nodes))
	for _, n := range nodes {
		weights[n] = vnodes
	}
	return NewWeighted(weights)
}

// NewWeighted builds a ring where each node's virtual-node count is
// proportional to its weight — the classic way to make a ring carry
// uneven shares (cf. the adaptive bin schemes of §V-C). All weights must
// be positive.
func NewWeighted(vnodesPerNode map[string]int) (*Ring, error) {
	if len(vnodesPerNode) == 0 {
		return nil, fmt.Errorf("chash: ring needs at least one node")
	}
	r := &Ring{vnodes: make(map[string]int, len(vnodesPerNode))}
	for node, v := range vnodesPerNode {
		if node == "" {
			return nil, fmt.Errorf("chash: empty node name")
		}
		if v <= 0 {
			return nil, fmt.Errorf("chash: node %q has %d virtual nodes; need > 0", node, v)
		}
		r.vnodes[node] = v
		for i := 0; i < v; i++ {
			r.points = append(r.points, point{
				hash: hash64(node, fmt.Sprintf("vn-%d", i)),
				node: node,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Points returns the total number of virtual nodes on the ring — the
// state a ring-based system must keep (and, per §V-C, the number of
// store processes a bin-per-process design would run).
func (r *Ring) Points() int { return len(r.points) }

// Place returns the node owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Place(key string) string {
	h := hash64("key", key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// PlaceK returns the first k distinct nodes clockwise from the key — the
// ring's replica set.
func (r *Ring) PlaceK(key string, k int) []string {
	if k <= 0 {
		return nil
	}
	h := hash64("key", key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for i := 0; i < len(r.points) && len(out) < k; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
