package qos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"memfss/internal/obs"
)

// brokerClock drives a Broker deterministically: Sleep advances Now, so
// Revoke's notice window elapses synchronously inside the test.
type brokerClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *brokerClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *brokerClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newFakeBroker(opts BrokerOptions) (*Broker, *brokerClock) {
	b := NewBroker(opts)
	clk := &brokerClock{now: time.Unix(2000, 0)}
	b.now = clk.Now
	b.sleep = clk.Sleep
	return b, clk
}

// recordingEvac remembers the calls the broker makes on eviction.
type recordingEvac struct {
	mu       sync.Mutex
	nodes    []string
	deadline time.Duration
	err      error
}

func (e *recordingEvac) EvacuateLeased(_ context.Context, node string, deadline time.Duration) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nodes = append(e.nodes, node)
	e.deadline = deadline
	return e.err
}

func seriesValue(reg *obs.Registry, family, label, value string) int64 {
	for _, f := range reg.Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if label == "" || s.Labels.Get(label) == value {
				return s.Value
			}
		}
	}
	return 0
}

func gaugeValue(reg *obs.Registry, family string) float64 {
	for _, f := range reg.Snapshot() {
		if f.Name == family {
			for _, s := range f.Series {
				return s.Gauge
			}
		}
	}
	return 0
}

func TestAdvertiseValidation(t *testing.T) {
	b := NewBroker(BrokerOptions{})
	if err := b.Advertise(Offer{Node: "", Bytes: 1}); err == nil {
		t.Error("empty node accepted")
	}
	if err := b.Advertise(Offer{Node: "v1", Bytes: -1}); err == nil {
		t.Error("negative bytes accepted")
	}
	if err := b.Advertise(Offer{Node: "v1", Bytes: 1, NoticeSLO: -time.Second}); err == nil {
		t.Error("negative SLO accepted")
	}
	if err := b.Advertise(Offer{Node: "v1", Bytes: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestMatchingAndSupply(t *testing.T) {
	reg := obs.NewRegistry()
	b, _ := newFakeBroker(BrokerOptions{Obs: reg})
	supply := func() float64 { return gaugeValue(reg, "memfss_qos_supply_bytes") }
	for node, bytes := range map[string]int64{"v1": 100, "v2": 300} {
		if err := b.Advertise(Offer{Node: node, Bytes: bytes, NoticeSLO: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	// Best fit by headroom: v2 has the most unleased bytes.
	l1, err := b.Request("a", 50)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Node != "v2" {
		t.Fatalf("first lease on %s, want v2 (most headroom)", l1.Node)
	}
	if l1.NoticeSLO != time.Second || l1.State != LeaseActive {
		t.Fatalf("lease %+v missing offer terms", l1)
	}
	// v2 now has 250 free, still the best fit.
	l2, err := b.Request("a", 200)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Node != "v2" {
		t.Fatalf("second lease on %s, want v2", l2.Node)
	}
	// 50 free on v2, 100 on v1: only v1 fits 80.
	l3, err := b.Request("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Node != "v1" {
		t.Fatalf("third lease on %s, want v1", l3.Node)
	}
	if _, err := b.Request("b", 60); !errors.Is(err, ErrNoSupply) {
		t.Fatalf("oversized request: %v, want ErrNoSupply", err)
	}
	if _, err := b.Request("b", 0); err == nil {
		t.Fatal("zero-byte request accepted")
	}
	if got := supply(); got != 20+50 {
		t.Fatalf("supply = %v, want 20 free on v1 + 50 on v2", got)
	}
	// Release returns capacity to its offer.
	if err := b.Release(l2.ID); err != nil {
		t.Fatal(err)
	}
	if got := supply(); got != 20+250 {
		t.Fatalf("supply after release = %v, want 270", got)
	}
	if err := b.Release(l2.ID); err == nil {
		t.Fatal("double release accepted")
	}
	if err := b.Release("lease-999"); err == nil {
		t.Fatal("unknown lease released")
	}
	// Withdraw stops new matches; the live lease stands.
	b.Withdraw("v1")
	if got := supply(); got != 250 {
		t.Fatalf("supply after withdrawing v1 = %v, want v2's 250", got)
	}
	if l4, err := b.Request("b", 10); err != nil || l4.Node != "v2" {
		t.Fatalf("request after withdraw: %+v %v, want a lease on v2", l4, err)
	}
	for _, l := range b.Leases() {
		if l.ID == l3.ID && l.State != LeaseActive {
			t.Fatalf("lease on withdrawn node became %s", l.State)
		}
	}
}

func TestRevokeMeetsNoticeSLO(t *testing.T) {
	reg := obs.NewRegistry()
	evac := &recordingEvac{}
	b, clk := newFakeBroker(BrokerOptions{Evac: evac, Obs: reg})
	const slo = 5 * time.Second
	if err := b.Advertise(Offer{Node: "v1", Bytes: 1 << 20, NoticeSLO: slo}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("hpc", 1<<19); err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(reg, "memfss_qos_leases_active"); got != 1 {
		t.Fatalf("active gauge = %v", got)
	}
	start := clk.Now()
	rep, err := b.Revoke(context.Background(), "v1", RevokeOptions{EvacDeadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leases != 1 || rep.SLO != slo {
		t.Fatalf("report %+v", rep)
	}
	if !rep.SLOMet || rep.Notice < slo {
		t.Fatalf("notice %v < SLO %v (report %+v)", rep.Notice, slo, rep)
	}
	if clk.Now().Sub(start) < slo {
		t.Fatalf("revocation finished %v after start, before the %v notice elapsed", clk.Now().Sub(start), slo)
	}
	if !rep.Evacuated || len(evac.nodes) != 1 || evac.nodes[0] != "v1" || evac.deadline != 30*time.Second {
		t.Fatalf("evacuator calls: %+v deadline=%v", evac.nodes, evac.deadline)
	}
	if got := seriesValue(reg, "memfss_qos_lease_revocations_total", "outcome", "met"); got != 1 {
		t.Fatalf("met revocations = %d", got)
	}
	if got := seriesValue(reg, "memfss_qos_lease_revocations_total", "outcome", "violated"); got != 0 {
		t.Fatalf("violated revocations = %d", got)
	}
	ls := b.Leases()
	if len(ls) != 1 || ls[0].State != LeaseRevoked || ls[0].EndedAt.IsZero() {
		t.Fatalf("lease after revoke: %+v", ls)
	}
	// The offer is gone: the node is being reclaimed.
	if got := gaugeValue(reg, "memfss_qos_supply_bytes"); got != 0 {
		t.Fatalf("revoked node still advertised: %v bytes", got)
	}
	if got := gaugeValue(reg, "memfss_qos_leases_active"); got != 0 {
		t.Fatalf("active gauge after revoke = %v", got)
	}
}

func TestRevokeForceViolatesSLO(t *testing.T) {
	reg := obs.NewRegistry()
	b, clk := newFakeBroker(BrokerOptions{Obs: reg})
	if err := b.Advertise(Offer{Node: "v1", Bytes: 100, NoticeSLO: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("batch", 10); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	rep, err := b.Revoke(context.Background(), "v1", RevokeOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now().Sub(start) != 0 {
		t.Fatalf("force revoke waited %v", clk.Now().Sub(start))
	}
	if rep.SLOMet || rep.Notice >= time.Minute {
		t.Fatalf("forced revoke reported SLO met: %+v", rep)
	}
	if got := seriesValue(reg, "memfss_qos_lease_revocations_total", "outcome", "violated"); got != 1 {
		t.Fatalf("violated revocations = %d", got)
	}
	if got := seriesValue(reg, "memfss_qos_lease_revocations_total", "outcome", "met"); got != 0 {
		t.Fatalf("met revocations = %d", got)
	}
}

func TestRevokeEndsEarlyWhenLesseesVacate(t *testing.T) {
	b, clk := newFakeBroker(BrokerOptions{})
	if err := b.Advertise(Offer{Node: "v1", Bytes: 100, NoticeSLO: time.Hour}); err != nil {
		t.Fatal(err)
	}
	l, err := b.Request("hpc", 10)
	if err != nil {
		t.Fatal(err)
	}
	// The lessee vacates during the notice window (after the first poll).
	released := false
	b.sleep = func(d time.Duration) {
		if !released {
			released = true
			if err := b.Release(l.ID); err != nil {
				t.Error(err)
			}
		}
		clk.Sleep(d)
	}
	start := clk.Now()
	rep, err := b.Revoke(context.Background(), "v1", RevokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := clk.Now().Sub(start); d >= time.Hour {
		t.Fatalf("revoke waited the full window (%v) despite early release", d)
	}
	// The released lease has no SLO grievance: nothing counted against it.
	if !rep.SLOMet {
		t.Fatalf("early release reported as violation: %+v", rep)
	}
	ls := b.Leases()
	if len(ls) != 1 || ls[0].State != LeaseReleased {
		t.Fatalf("lease after early release: %+v", ls)
	}
}

func TestRevokeCanceledContext(t *testing.T) {
	evac := &recordingEvac{}
	b, _ := newFakeBroker(BrokerOptions{Evac: evac})
	if err := b.Advertise(Offer{Node: "v1", Bytes: 100, NoticeSLO: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("hpc", 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Revoke(ctx, "v1", RevokeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("revoke on dead context: %v", err)
	}
	if len(evac.nodes) != 0 {
		t.Fatal("evacuator ran despite canceled notice window")
	}
}

func TestRevokeEvacErrorPropagates(t *testing.T) {
	evac := &recordingEvac{err: errors.New("drain stalled")}
	b, _ := newFakeBroker(BrokerOptions{Evac: evac})
	if err := b.Advertise(Offer{Node: "v1", Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("hpc", 10); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Revoke(context.Background(), "v1", RevokeOptions{})
	if err == nil || !errors.Is(err, evac.err) {
		t.Fatalf("evac error lost: %v", err)
	}
	if rep.Evacuated {
		t.Fatal("failed evacuation reported as done")
	}
}

func TestRevokeEmptyNode(t *testing.T) {
	b, clk := newFakeBroker(BrokerOptions{})
	start := clk.Now()
	rep, err := b.Revoke(context.Background(), "ghost", RevokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leases != 0 || !rep.SLOMet || clk.Now() != start {
		t.Fatalf("no-lease revoke: %+v", rep)
	}
}

func TestLeaseIDsUnique(t *testing.T) {
	b, _ := newFakeBroker(BrokerOptions{})
	if err := b.Advertise(Offer{Node: "v1", Bytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		l, err := b.Request(fmt.Sprintf("t%d", i%3), 1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.ID] {
			t.Fatalf("duplicate lease ID %s", l.ID)
		}
		seen[l.ID] = true
	}
}
