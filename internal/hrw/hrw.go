// Package hrw implements Highest Random Weight (rendezvous) hashing and the
// weighted, two-layer class variant that MemFSS uses for data placement.
//
// The original HRW protocol (Thaler & Ravishankar, 1998) places a key on the
// server whose hash H(server, key) is largest. Like consistent hashing it has
// the minimal-disruption property: adding or removing one of N servers
// remaps only O(M/N) of M keys: when a node leaves, each of its keys has
// exactly one new home, the next node in descending hash order. MemFSS
// sends a moved key straight there (its "successor"), so readers find it
// with one extra ask and nothing rebalances.
//
// MemFSS extends HRW with a class layer: nodes are grouped into classes
// ("own" and one or more "victim" classes), a per-class weight is subtracted
// from the class hash so that the share of keys sent to each class is
// controllable, and plain HRW then spreads keys uniformly over the nodes of
// the winning class.
package hrw

import (
	"errors"
	"fmt"
	"sort"
)

// fnv64a hashes a pair of strings with FNV-1a, mixing in a separator so that
// ("ab","c") and ("a","bc") hash differently.
func fnv64a(a, b string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime
	}
	h ^= 0xff // separator byte outside the usual key alphabet
	h *= prime
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	return h
}

// mix64 is the splitmix64 finalizer; it decorrelates FNV's weak avalanche so
// that scores behave like independent uniform draws per (node, key) pair.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Score returns the HRW score of node for key. The key is placed on the
// node with the highest score.
func Score(node, key string) uint64 {
	return mix64(fnv64a(node, key))
}

// Unit returns the HRW score of node for key mapped to [0, 1). The class
// layer works in the unit interval so that weights have a scale-free
// interpretation.
func Unit(node, key string) float64 {
	return float64(Score(node, key)>>11) / (1 << 53)
}

// Top returns the node with the highest score for key, or "" if nodes is
// empty. Ties are broken by node ID so the result is deterministic.
func Top(nodes []string, key string) string {
	var (
		best      string
		bestScore uint64
		found     bool
	)
	for _, n := range nodes {
		s := Score(n, key)
		if !found || s > bestScore || (s == bestScore && n < best) {
			best, bestScore, found = n, s, true
		}
	}
	return best
}

// TopK returns up to k nodes in descending score order for key. The slice
// is freshly allocated. TopK(nodes, key, len(nodes)) is the full rank list;
// entries 1..k-1 are the natural replica targets (paper §III-E).
func TopK(nodes []string, key string, k int) []string {
	if k <= 0 || len(nodes) == 0 {
		return nil
	}
	if k == 1 {
		return []string{Top(nodes, key)} // Rank's first, without the sort
	}
	ranked := Rank(nodes, key)
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// Rank returns all nodes sorted by descending HRW score for key.
func Rank(nodes []string, key string) []string {
	type scored struct {
		node  string
		score uint64
	}
	ss := make([]scored, len(nodes))
	for i, n := range nodes {
		ss[i] = scored{n, Score(n, key)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].node < ss[j].node
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.node
	}
	return out
}

// Class is a named group of nodes sharing one placement weight.
//
// Weight is subtracted from the class's unit-interval hash when competing
// for a key (paper §III-B): larger weights attract fewer keys. Weights are
// only meaningful relative to each other; DeltaForOwnFraction translates a
// desired two-class key split into a weight.
type Class struct {
	Name   string
	Weight float64
	Nodes  []string
}

// score is the weighted class score for key: the class hash in [0,1) minus
// the class weight. The class with the highest score stores the key.
func (c *Class) score(key string) float64 {
	return Unit(c.Name, key) - c.Weight
}

// Placer performs the two-layer placement used by MemFSS: a weighted HRW
// draw over classes followed by a uniform HRW draw over the nodes of the
// winning class. The zero value is unusable; construct with NewPlacer.
//
// A Placer is immutable and safe for concurrent use. Metadata records the
// classes and weights in force at write time, so a file keeps placing
// through the Placer it was written under (paper §III-D). A node that has
// left since is the caller's to pass over: by minimal disruption its keys
// go to the next node of ProbeOrder.
type Placer struct {
	classes []Class
}

// NewPlacer validates the classes and returns a Placer. Class names and
// node IDs must be unique and non-empty, and every class must contain at
// least one node.
func NewPlacer(classes ...Class) (*Placer, error) {
	if len(classes) == 0 {
		return nil, errors.New("hrw: placer needs at least one class")
	}
	seenClass := make(map[string]bool, len(classes))
	seenNode := make(map[string]bool)
	cp := make([]Class, len(classes))
	for i, c := range classes {
		if c.Name == "" {
			return nil, errors.New("hrw: empty class name")
		}
		if seenClass[c.Name] {
			return nil, fmt.Errorf("hrw: duplicate class %q", c.Name)
		}
		seenClass[c.Name] = true
		if len(c.Nodes) == 0 {
			return nil, fmt.Errorf("hrw: class %q has no nodes", c.Name)
		}
		nodes := make([]string, len(c.Nodes))
		copy(nodes, c.Nodes)
		for _, n := range nodes {
			if n == "" {
				return nil, fmt.Errorf("hrw: class %q contains an empty node ID", c.Name)
			}
			if seenNode[n] {
				return nil, fmt.Errorf("hrw: node %q appears in more than one class", n)
			}
			seenNode[n] = true
		}
		cp[i] = Class{Name: c.Name, Weight: c.Weight, Nodes: nodes}
	}
	return &Placer{classes: cp}, nil
}

// NumNodes returns the total node count across all classes.
func (p *Placer) NumNodes() int {
	n := 0
	for _, c := range p.classes {
		n += len(c.Nodes)
	}
	return n
}

// ClassFor returns the class that stores key (layer one of the protocol).
func (p *Placer) ClassFor(key string) *Class {
	var best *Class
	bestScore := 0.0
	for i := range p.classes {
		c := &p.classes[i]
		s := c.score(key)
		if best == nil || s > bestScore || (s == bestScore && c.Name < best.Name) {
			best, bestScore = c, s
		}
	}
	return best
}

// Place returns the node that stores key: weighted HRW over classes, then
// uniform HRW over the winning class's nodes.
func (p *Placer) Place(key string) string {
	return Top(p.ClassFor(key).Nodes, key)
}

// PlaceK returns up to k replica targets for key, all inside the winning
// class, in descending HRW order (paper §III-E: replicas go to the nodes
// yielding the second and third highest values).
func (p *Placer) PlaceK(key string, k int) []string {
	return TopK(p.ClassFor(key).Nodes, key, k)
}

// ProbeOrder returns every node in the system in the order that succeeds
// Place when nodes leave: the winning class's full rank list first, then
// the remaining classes in descending class-score order, each ranked
// internally. The first node of it that is still present and holds no
// slot is a departed slot's successor.
func (p *Placer) ProbeOrder(key string) []string {
	type scoredClass struct {
		c *Class
		s float64
	}
	scs := make([]scoredClass, len(p.classes))
	for i := range p.classes {
		scs[i] = scoredClass{&p.classes[i], p.classes[i].score(key)}
	}
	sort.Slice(scs, func(i, j int) bool {
		if scs[i].s != scs[j].s {
			return scs[i].s > scs[j].s
		}
		return scs[i].c.Name < scs[j].c.Name
	})
	out := make([]string, 0, p.NumNodes())
	for _, sc := range scs {
		out = append(out, Rank(sc.c.Nodes, key)...)
	}
	return out
}
