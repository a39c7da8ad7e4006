package qos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"memfss/internal/obs"
	"memfss/internal/obs/trace"
)

// This file is the lease marketplace: victims advertise harvestable
// capacity, the broker matches tenant demand to supply, and every lease
// carries an eviction-notice SLO — when the victim wants its memory back,
// lessees are guaranteed at least NoticeSLO of warning before their bytes
// start moving. Revocation rides the graduated Evacuate protocol through
// the Evacuator interface, and the SLO is enforced, measured, and
// reported (notice histogram + met/violated counters), which is what
// turns the paper's admin revocation verb into a contract tenants can
// plan around (Memtrade's broker, PAPERS.md).

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
	GrantedAt time.Time
	NoticedAt time.Time // zero until notice is given
	EndedAt   time.Time // zero until Revoked/Released
}

// Evacuator drains a victim node within a deadline — implemented by
// core.FileSystem (EvacuateLeased), which runs the phased fence → drain →
// detach → sweep → release protocol.
type Evacuator interface {
	EvacuateLeased(ctx context.Context, node string, deadline time.Duration) error
}

// RevokeReport describes one node revocation through the broker.
type RevokeReport struct {
	Node      string
	Leases    int           // leases that were given notice
	SLO       time.Duration // strictest (largest) NoticeSLO among them
	Notice    time.Duration // notice actually delivered before eviction began
	SLOMet    bool          // Notice >= SLO (vacuously true with no leases)
	Evacuated bool          // the Evacuator ran (false without one)
	Elapsed   time.Duration
}

// RevokeOptions tunes one revocation.
type RevokeOptions struct {
	// EvacDeadline bounds the post-notice evacuation (0 = the Evacuator's
	// default, core's 30s).
	EvacDeadline time.Duration
	// Force skips the remaining notice window: eviction starts
	// immediately and the SLO is recorded as violated for any lease whose
	// notice fell short. This is the "tenant pulled the plug" path — the
	// accounting exists precisely so these show up.
	Force bool
}

// BrokerOptions configures a Broker.
type BrokerOptions struct {
	// Evac runs revocation evictions; nil degrades Revoke to bookkeeping
	// (state transitions and SLO accounting without data movement).
	Evac Evacuator
	// Obs receives the lease metric families.
	Obs *obs.Registry
	// Journal, when set, receives lease lifecycle events (advertise,
	// grant, release, revoke with SLO outcome) in the cluster flight
	// recorder.
	Journal *trace.Journal
	// PollInterval is the notice-window poll cadence (default 20ms):
	// Revoke wakes this often to notice early releases and context
	// cancellation while it waits out the notice.
	PollInterval time.Duration
}

// offerState tracks one node's supply and how much of it is leased.
type offerState struct {
	offer  Offer
	leased int64
}

// Broker matches tenant demand to victim supply and enforces the
// eviction-notice SLO on the way back out.
type Broker struct {
	opts BrokerOptions

	mu     sync.Mutex
	offers map[string]*offerState
	leases map[string]*Lease
	seq    int64

	// Injectable clock for deterministic SLO tests.
	now   func() time.Time
	sleep func(time.Duration)

	granted     *obs.Counter
	revokedMet  *obs.Counter
	revokedMiss *obs.Counter
	noticeHist  *obs.Histogram
}

// NewBroker builds a lease broker.
func NewBroker(opts BrokerOptions) *Broker {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 20 * time.Millisecond
	}
	b := &Broker{
		opts:   opts,
		offers: make(map[string]*offerState),
		leases: make(map[string]*Lease),
		now:    time.Now,
		sleep:  time.Sleep,
	}
	if reg := opts.Obs; reg != nil {
		b.granted = reg.Counter("memfss_qos_leases_granted_total",
			"Leases granted on advertised victim capacity.", nil)
		b.revokedMet = reg.Counter("memfss_qos_lease_revocations_total",
			"Lease revocations by eviction-notice SLO outcome.", obs.L("outcome", "met"))
		b.revokedMiss = reg.Counter("memfss_qos_lease_revocations_total",
			"Lease revocations by eviction-notice SLO outcome.", obs.L("outcome", "violated"))
		b.noticeHist = reg.Histogram("memfss_qos_lease_notice_seconds",
			"Eviction notice actually delivered to lessees before their data moved.",
			nil, obs.DefSlowBuckets)
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
	}
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
		b.opts.Journal.Note("lease", o.Node,
			fmt.Sprintf("offer refreshed: %d bytes, notice SLO %s", o.Bytes, o.NoticeSLO), 0)
		return nil
	}
	b.offers[o.Node] = &offerState{offer: o}
	b.opts.Journal.Note("lease", o.Node,
		fmt.Sprintf("advertised %d bytes, notice SLO %s", o.Bytes, o.NoticeSLO), 0)
	return nil
}

// Withdraw removes a node's offer. Existing leases on the node stand
// until released or revoked.
func (b *Broker) Withdraw(node string) {
	b.mu.Lock()
	delete(b.offers, node)
	b.mu.Unlock()
	b.opts.Journal.Note("lease", node, "offer withdrawn", 0)
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
		b.opts.Journal.Record(trace.Event{Type: "lease", Tenant: tenant,
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
		GrantedAt: b.now(),
	}
	b.leases[l.ID] = l
	if b.granted != nil {
		b.granted.Inc()
	}
	b.opts.Journal.Record(trace.Event{Type: "lease", Node: l.Node, Tenant: tenant,
		Detail: fmt.Sprintf("granted %s: %d bytes", l.ID, l.Bytes)})
	return *l, nil
}

// Release returns a lease's capacity to its offer; legal from Active or
// Noticed (vacating during the notice window is exactly what the notice
// is for).
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
	l.State = LeaseReleased
	l.EndedAt = b.now()
	if o, ok := b.offers[l.Node]; ok {
		o.leased -= l.Bytes
		if o.leased < 0 {
			o.leased = 0
		}
	}
	b.opts.Journal.Record(trace.Event{Type: "lease", Node: l.Node, Tenant: l.Tenant,
		Detail: "released " + id})
	return nil
}

// Revoke takes a victim node back: every active lease on it is given
// eviction notice, the broker waits out the strictest NoticeSLO (leaving
// early only if every noticed lease is released first, or ctx is
// canceled, or opts.Force), and then the node is evacuated through the
// graduated Evacuate protocol. The notice actually delivered is measured
// against the SLO and reported — met or violated, never unaccounted.
func (b *Broker) Revoke(ctx context.Context, node string, opts RevokeOptions) (RevokeReport, error) {
	start := b.now()
	b.mu.Lock()
	var noticed []*Lease
	var slo time.Duration
	for _, l := range b.leases {
		if l.Node != node || l.State != LeaseActive {
			continue
		}
		l.State = LeaseNoticed
		l.NoticedAt = start
		noticed = append(noticed, l)
		if l.NoticeSLO > slo {
			slo = l.NoticeSLO
		}
	}
	delete(b.offers, node) // no new leases on a node being reclaimed
	b.mu.Unlock()

	rep := RevokeReport{Node: node, Leases: len(noticed), SLO: slo}

	// Wait out the notice window. Early exits: all lessees vacated, the
	// caller forced immediate eviction, or the context died.
	var waitErr error
	if !opts.Force {
	wait:
		for b.now().Sub(start) < slo {
			if err := ctx.Err(); err != nil {
				waitErr = err
				break
			}
			b.mu.Lock()
			pending := 0
			for _, l := range noticed {
				if l.State == LeaseNoticed {
					pending++
				}
			}
			b.mu.Unlock()
			if pending == 0 {
				break wait
			}
			d := slo - b.now().Sub(start)
			if d > b.opts.PollInterval {
				d = b.opts.PollInterval
			}
			b.sleep(d)
		}
	}

	// Eviction begins now; the notice delivered is what the clock says.
	rep.Notice = b.now().Sub(start)
	rep.SLOMet = true
	var evacErr error
	if b.opts.Evac != nil && waitErr == nil {
		evacErr = b.opts.Evac.EvacuateLeased(ctx, node, opts.EvacDeadline)
		rep.Evacuated = evacErr == nil
	}

	b.mu.Lock()
	end := b.now()
	for _, l := range noticed {
		if l.State != LeaseNoticed {
			continue // released during the window; its SLO question is moot
		}
		l.State = LeaseRevoked
		l.EndedAt = end
		met := rep.Notice >= l.NoticeSLO
		if !met {
			rep.SLOMet = false
		}
		switch {
		case met && b.revokedMet != nil:
			b.revokedMet.Inc()
		case !met && b.revokedMiss != nil:
			b.revokedMiss.Inc()
		}
		if b.noticeHist != nil {
			b.noticeHist.Observe(rep.Notice)
		}
		outcome := "met"
		if !met {
			outcome = "violated"
		}
		b.opts.Journal.Record(trace.Event{Type: "lease", Node: node, Tenant: l.Tenant,
			Detail: fmt.Sprintf("revoked %s: notice %s vs SLO %s (%s)",
				l.ID, rep.Notice.Round(time.Millisecond), l.NoticeSLO, outcome)})
	}
	b.mu.Unlock()
	rep.Elapsed = b.now().Sub(start)
	if waitErr != nil {
		return rep, fmt.Errorf("qos: revoke %s: notice window: %w", node, waitErr)
	}
	if evacErr != nil {
		return rep, fmt.Errorf("qos: revoke %s: evacuate: %w", node, evacErr)
	}
	return rep, nil
}
