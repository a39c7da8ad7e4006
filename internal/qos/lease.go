package qos

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"memfss/internal/obs"
	"memfss/internal/obs/trace"
)

// This file is the lease book: victims advertise harvestable capacity,
// the broker matches tenant demand to supply, and every lease carries an
// eviction-notice SLO — when the victim wants its memory back, lessees
// are guaranteed at least NoticeSLO of warning before their bytes start
// moving (Memtrade's broker, PAPERS.md). The book only keeps accounts:
// core.FileSystem.Revoke gives notice through Notice, its reclamation
// record starts the eviction when the notice ends, and Evict settles the
// notice each lease actually got (notice histogram + met/violated
// counters), which turns the paper's revocation into a contract tenants
// can plan around.

// LeaseState is one lease's position in its lifecycle:
//
//	Active --(Revoke: notice given)--> Noticed --(evicted)--> Revoked
//	  \--(lessee returns it)--> Released
//
// Noticed leases may still be Released early (the lessee vacated during
// the notice window); Revoked and Released are terminal.
type LeaseState int

const (
	LeaseActive LeaseState = iota
	LeaseNoticed
	LeaseRevoked
	LeaseReleased
)

// String names the state for logs and tables.
func (s LeaseState) String() string {
	switch s {
	case LeaseActive:
		return "active"
	case LeaseNoticed:
		return "noticed"
	case LeaseRevoked:
		return "revoked"
	case LeaseReleased:
		return "released"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Offer is one victim node's advertised supply: harvestable bytes plus
// the eviction notice the victim is willing to guarantee.
type Offer struct {
	Node      string
	Bytes     int64
	NoticeSLO time.Duration
}

// Lease is one granted claim on a victim's offer.
type Lease struct {
	ID        string
	Tenant    string
	Node      string
	Bytes     int64
	NoticeSLO time.Duration
	State     LeaseState
	NoticedAt time.Time // zero until notice is given
	EndedAt   time.Time // zero until Revoked/Released
}

// offerState tracks one node's supply and how much of it is leased.
type offerState struct {
	offer  Offer
	leased int64
}

// Broker matches tenant demand to victim supply and accounts for the
// eviction notice on the way back out. It never waits or moves data.
type Broker struct {
	journal *trace.Journal    // lease lifecycle events, when set
	vacated func(node string) // called when a node's last noticed lease is released

	mu     sync.Mutex
	offers map[string]*offerState
	leases map[string]*Lease
	seq    int64

	granted     *obs.Counter
	revokedMet  *obs.Counter
	revokedMiss *obs.Counter
	noticeHist  *obs.Histogram
}

// NewBroker builds a lease book that registers the lease metric families
// on reg and journals lease events to journal (either may be nil).
// vacated, when set, hears of every node whose last noticed lease was
// released.
func NewBroker(reg *obs.Registry, journal *trace.Journal, vacated func(node string)) *Broker {
	b := &Broker{
		journal: journal,
		vacated: vacated,
		offers:  make(map[string]*offerState),
		leases:  make(map[string]*Lease),
		granted: reg.Counter("memfss_qos_leases_granted_total",
			"Leases granted on advertised victim capacity.", nil),
		revokedMet: reg.Counter("memfss_qos_lease_revocations_total",
			"Lease revocations by eviction-notice SLO outcome.", obs.L("outcome", "met")),
		revokedMiss: reg.Counter("memfss_qos_lease_revocations_total",
			"Lease revocations by eviction-notice SLO outcome.", obs.L("outcome", "violated")),
		noticeHist: reg.Histogram("memfss_qos_lease_notice_seconds",
			"Eviction notice actually delivered to lessees before their data moved.",
			nil, obs.DefSlowBuckets),
	}
	reg.Gauge("memfss_qos_leases_active",
		"Leases currently active or in their notice window.", nil, func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			n := 0
			for _, l := range b.leases {
				if l.State == LeaseActive || l.State == LeaseNoticed {
					n++
				}
			}
			return float64(n)
		})
	reg.Gauge("memfss_qos_supply_bytes",
		"Advertised victim capacity not yet leased.", nil, func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			var free int64
			for _, o := range b.offers {
				free += o.offer.Bytes - o.leased
			}
			return float64(free)
		})
	return b
}

// Advertise publishes (or refreshes) a victim node's harvestable
// capacity. Shrinking an offer below its already-leased bytes is allowed
// — existing leases stand, the node just stops matching new demand.
func (b *Broker) Advertise(o Offer) error {
	if o.Node == "" {
		return errors.New("qos: offer needs a node")
	}
	if o.Bytes < 0 || o.NoticeSLO < 0 {
		return fmt.Errorf("qos: negative offer %+v", o)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cur, ok := b.offers[o.Node]; ok {
		cur.offer = o
		b.journal.Note("lease", o.Node,
			fmt.Sprintf("offer refreshed: %d bytes, notice SLO %s", o.Bytes, o.NoticeSLO), 0)
		return nil
	}
	b.offers[o.Node] = &offerState{offer: o}
	b.journal.Note("lease", o.Node,
		fmt.Sprintf("advertised %d bytes, notice SLO %s", o.Bytes, o.NoticeSLO), 0)
	return nil
}

// Withdraw removes a node's offer. Existing leases on the node stand
// until released or revoked.
func (b *Broker) Withdraw(node string) {
	b.mu.Lock()
	delete(b.offers, node)
	b.mu.Unlock()
	b.journal.Note("lease", node, "offer withdrawn", 0)
}

// Leases snapshots every lease, sorted by ID.
func (b *Broker) Leases() []Lease {
	b.mu.Lock()
	out := make([]Lease, 0, len(b.leases))
	for _, l := range b.leases {
		out = append(out, *l)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ErrNoSupply reports demand no current offer can satisfy.
var ErrNoSupply = errors.New("qos: no offer with enough unleased capacity")

// Request matches a tenant's demand to supply and grants a lease. The
// match is best-fit-by-headroom: the offer with the most unleased bytes
// wins (spreading leases instead of piling them onto one victim whose
// revocation would then hit everyone).
func (b *Broker) Request(tenant string, bytes int64) (Lease, error) {
	if bytes <= 0 {
		return Lease{}, fmt.Errorf("qos: lease request for %d bytes", bytes)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var best *offerState
	for _, o := range b.offers {
		free := o.offer.Bytes - o.leased
		if free < bytes {
			continue
		}
		if best == nil || free > best.offer.Bytes-best.leased ||
			(free == best.offer.Bytes-best.leased && o.offer.Node < best.offer.Node) {
			best = o
		}
	}
	if best == nil {
		b.journal.Record(trace.Event{Type: "lease", Tenant: tenant,
			Detail: fmt.Sprintf("request denied: no supply for %d bytes", bytes)})
		return Lease{}, fmt.Errorf("%w: %d bytes for tenant %s", ErrNoSupply, bytes, tenant)
	}
	best.leased += bytes
	b.seq++
	l := &Lease{
		ID:        "lease-" + strconv.FormatInt(b.seq, 10),
		Tenant:    tenant,
		Node:      best.offer.Node,
		Bytes:     bytes,
		NoticeSLO: best.offer.NoticeSLO,
		State:     LeaseActive,
	}
	b.leases[l.ID] = l
	b.granted.Inc()
	b.journal.Record(trace.Event{Type: "lease", Node: l.Node, Tenant: tenant,
		Detail: fmt.Sprintf("granted %s: %d bytes", l.ID, l.Bytes)})
	return *l, nil
}

// Release returns a lease's capacity to its offer; legal from Active or
// Noticed (vacating during the notice window is exactly what the notice
// is for). Releasing a node's last noticed lease calls the vacated hook:
// nothing is left to wait for.
func (b *Broker) Release(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.leases[id]
	if !ok {
		return fmt.Errorf("qos: unknown lease %s", id)
	}
	if l.State != LeaseActive && l.State != LeaseNoticed {
		return fmt.Errorf("qos: lease %s is %s, not releasable", id, l.State)
	}
	noticed := l.State == LeaseNoticed
	l.State = LeaseReleased
	l.EndedAt = time.Now()
	if o, ok := b.offers[l.Node]; ok {
		o.leased -= l.Bytes
		if o.leased < 0 {
			o.leased = 0
		}
	}
	b.journal.Record(trace.Event{Type: "lease", Node: l.Node, Tenant: l.Tenant,
		Detail: "released " + id})
	if n, _, _ := b.noticedLocked(l.Node); noticed && n == 0 && b.vacated != nil {
		go b.vacated(l.Node) // the hook takes the file system's locks, not under ours
	}
	return nil
}

// Notice gives every active lease on node its eviction notice at now. It
// returns the leases under notice on the node, the strictest (largest)
// NoticeSLO among them, and when the last of their notices ends (now with
// none).
func (b *Broker) Notice(node string, now time.Time) (n int, slo time.Duration, end time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.leases {
		if l.Node == node && l.State == LeaseActive {
			l.State, l.NoticedAt = LeaseNoticed, now
		}
	}
	n, slo, end = b.noticedLocked(node)
	if end.Before(now) {
		end = now
	}
	return n, slo, end
}

// Noticed counts node's leases under notice.
func (b *Broker) Noticed(node string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, _, _ := b.noticedLocked(node)
	return n
}

// noticedLocked counts node's noticed leases, their strictest NoticeSLO
// and when the last of their notices ends (zero with none).
func (b *Broker) noticedLocked(node string) (n int, slo time.Duration, end time.Time) {
	for _, l := range b.leases {
		if l.Node != node || l.State != LeaseNoticed {
			continue
		}
		n++
		slo = max(slo, l.NoticeSLO)
		if e := l.NoticedAt.Add(l.NoticeSLO); e.After(end) {
			end = e
		}
	}
	return n, slo, end
}

// Evict settles every noticed lease on node: its eviction began at fence,
// so each lease got fence minus its NoticedAt of notice, met when that is
// at least its NoticeSLO — measured and counted, never unaccounted. It
// reports whether every one was met (true with none).
func (b *Broker) Evict(node string, fence time.Time) (met bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	met = true
	for _, l := range b.leases {
		if l.Node != node || l.State != LeaseNoticed {
			continue
		}
		notice := max(fence.Sub(l.NoticedAt), 0)
		l.State, l.EndedAt = LeaseRevoked, time.Now()
		outcome, counter := "met", b.revokedMet
		if notice < l.NoticeSLO {
			outcome, counter, met = "violated", b.revokedMiss, false
		}
		counter.Inc()
		b.noticeHist.Observe(notice)
		b.journal.Record(trace.Event{Type: "lease", Node: node, Tenant: l.Tenant,
			Detail: fmt.Sprintf("revoked %s: notice %s vs SLO %s (%s)",
				l.ID, notice.Round(time.Millisecond), l.NoticeSLO, outcome)})
	}
	return met
}
