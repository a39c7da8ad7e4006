package cluster

import (
	"fmt"
	"sort"
)

// Reservation is a tenant's exclusive allocation of nodes through the
// primary queue.
type Reservation struct {
	ID    string
	Nodes []*Node

	rs *ReservationSystem
}

// VictimOffer is one entry in the secondary (scavenging) queue: a reserved
// node whose tenant (voluntarily, or by administrator policy) exposes
// spare memory to MemFSS, capped at MemoryBytes (paper §III-A).
type VictimOffer struct {
	Node        *Node
	MemoryBytes int64
	Reservation string // owning reservation ID
	claimed     bool
}

// ReservationSystem is the cluster scheduler front end: a free-node pool
// for the primary queue plus the secondary scavenging queue.
type ReservationSystem struct {
	c      *Cluster
	free   []*Node
	nextID int
	offers map[string]*VictimOffer // node ID -> offer
}

// NewReservationSystem manages all current nodes of the cluster.
func NewReservationSystem(c *Cluster) *ReservationSystem {
	rs := &ReservationSystem{
		c:      c,
		offers: make(map[string]*VictimOffer),
	}
	rs.free = append(rs.free, c.Nodes()...)
	return rs
}

// Reserve allocates n nodes exclusively, or fails if fewer are free.
func (rs *ReservationSystem) Reserve(n int) (*Reservation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: reservation size %d must be positive", n)
	}
	if n > len(rs.free) {
		return nil, fmt.Errorf("cluster: %d nodes requested, %d free", n, len(rs.free))
	}
	r := &Reservation{
		ID:    fmt.Sprintf("resv-%d", rs.nextID),
		Nodes: rs.free[:n:n],
		rs:    rs,
	}
	rs.nextID++
	rs.free = rs.free[n:]
	return r, nil
}

// OfferVictims registers nodes of this reservation on the secondary queue
// with the given per-node memory cap. This is the voluntary registration
// path; an administrator enforcing registration for every reservation is
// the same call made by policy.
func (r *Reservation) OfferVictims(memBytes int64, nodes ...*Node) error {
	if memBytes <= 0 {
		return fmt.Errorf("cluster: victim memory cap %d must be positive", memBytes)
	}
	if len(nodes) == 0 {
		nodes = r.Nodes
	}
	owned := make(map[string]bool, len(r.Nodes))
	for _, n := range r.Nodes {
		owned[n.ID] = true
	}
	for _, n := range nodes {
		if !owned[n.ID] {
			return fmt.Errorf("cluster: node %s is not part of reservation %s", n.ID, r.ID)
		}
		if _, dup := r.rs.offers[n.ID]; dup {
			return fmt.Errorf("cluster: node %s already offered", n.ID)
		}
	}
	for _, n := range nodes {
		r.rs.offers[n.ID] = &VictimOffer{Node: n, MemoryBytes: memBytes, Reservation: r.ID}
	}
	return nil
}

// ClaimVictims takes up to max unclaimed offers from the secondary queue,
// in deterministic node-ID order. A max <= 0 claims all available.
func (rs *ReservationSystem) ClaimVictims(max int) []*VictimOffer {
	ids := make([]string, 0, len(rs.offers))
	for id, o := range rs.offers {
		if !o.claimed {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if max > 0 && len(ids) > max {
		ids = ids[:max]
	}
	out := make([]*VictimOffer, len(ids))
	for i, id := range ids {
		rs.offers[id].claimed = true
		out[i] = rs.offers[id]
	}
	return out
}
