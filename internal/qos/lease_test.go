package qos_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/faultwrap"
	"memfss/internal/obs"
	"memfss/internal/qos"
)

// The lease book's bookkeeping is tested on its own; revocation, which
// core.FileSystem.Revoke carries out through the book, is tested on a
// live file system (an external test package, so it may import core).

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
	b := qos.NewBroker(nil, nil, nil)
	if err := b.Advertise(qos.Offer{Node: "", Bytes: 1}); err == nil {
		t.Error("empty node accepted")
	}
	if err := b.Advertise(qos.Offer{Node: "v1", Bytes: -1}); err == nil {
		t.Error("negative bytes accepted")
	}
	if err := b.Advertise(qos.Offer{Node: "v1", Bytes: 1, NoticeSLO: -time.Second}); err == nil {
		t.Error("negative SLO accepted")
	}
	if err := b.Advertise(qos.Offer{Node: "v1", Bytes: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestMatchingAndSupply(t *testing.T) {
	reg := obs.NewRegistry()
	b := qos.NewBroker(reg, nil, nil)
	supply := func() float64 { return gaugeValue(reg, "memfss_qos_supply_bytes") }
	for node, bytes := range map[string]int64{"v1": 100, "v2": 300} {
		if err := b.Advertise(qos.Offer{Node: node, Bytes: bytes, NoticeSLO: time.Second}); err != nil {
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
	if l1.NoticeSLO != time.Second || l1.State != qos.LeaseActive {
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
	if _, err := b.Request("b", 60); !errors.Is(err, qos.ErrNoSupply) {
		t.Fatalf("oversized request: %v, want qos.ErrNoSupply", err)
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
		if l.ID == l3.ID && l.State != qos.LeaseActive {
			t.Fatalf("lease on withdrawn node became %s", l.State)
		}
	}
}

// leaseFS is a file system over one own store and two victim stores, each
// victim behind a fault proxy, holding a few files; the revocation tests
// lease and revoke victim-0 (node).
type leaseFS struct {
	fs      *core.FileSystem
	b       *qos.Broker
	reg     *obs.Registry
	node    string
	victims *core.LocalStores
	proxies []*faultwrap.Proxy
	files   map[string][]byte
}

func newLeaseFS(t *testing.T) *leaseFS {
	t.Helper()
	own, err := core.StartLocalStores(1, "own", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(own.Close)
	victims, err := core.StartLocalStores(2, "victim", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victims.Close)
	proxies, err := faultwrap.WrapAll([]string{victims.Nodes[0].Addr, victims.Nodes[1].Addr}, faultwrap.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]core.NodeSpec, len(proxies))
	for i, p := range proxies {
		t.Cleanup(func() { p.Close() })
		nodes[i] = core.NodeSpec{ID: victims.Nodes[i].ID, Addr: p.Addr()}
	}
	classes, err := core.OwnVictimClasses(own.Nodes, nodes, 0.25, container.Limits{MemoryBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fs, err := core.New(core.Config{Classes: classes, StripeSize: 4 << 10, Obs: core.ObsPolicy{Registry: reg},
		Retry: core.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, OpTimeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	l := &leaseFS{fs: fs, b: fs.Broker(), reg: reg, node: nodes[0].ID, victims: victims, proxies: proxies,
		files: map[string][]byte{}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/f%d", i)
		l.files[p] = make([]byte, 20_000)
		rng.Read(l.files[p])
		if err := fs.WriteFile(p, l.files[p]); err != nil {
			t.Fatal(err)
		}
	}
	if l.victims.Server(0).Store().Stats().NumKeys == 0 {
		t.Fatal("placement left victim-0 empty")
	}
	return l
}

// lease advertises node's capacity with notice slo and leases some of it.
func (l *leaseFS) lease(t *testing.T, slo time.Duration) qos.Lease {
	t.Helper()
	if err := l.b.Advertise(qos.Offer{Node: l.node, Bytes: 1 << 20, NoticeSLO: slo}); err != nil {
		t.Fatal(err)
	}
	ls, err := l.b.Request("hpc", 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// member reports whether node is still in the deployment.
func (l *leaseFS) member() bool {
	for _, c := range l.fs.Classes() {
		for _, n := range c.Nodes {
			if n.ID == l.node {
				return true
			}
		}
	}
	return false
}

// checkEvacuated fails unless node left with its store empty and every
// file reads back exact.
func (l *leaseFS) checkEvacuated(t *testing.T) {
	t.Helper()
	if l.member() {
		t.Fatal("revoked node still registered")
	}
	if st := l.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("revoked store still holds %d bytes", st.BytesUsed)
	}
	for p, want := range l.files {
		if got, err := l.fs.ReadFile(p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the revocation: %v", p, err)
		}
	}
}

func TestRevokeMeetsNoticeSLO(t *testing.T) {
	l := newLeaseFS(t)
	const slo = 200 * time.Millisecond
	l.lease(t, slo)
	if got := gaugeValue(l.reg, "memfss_qos_leases_active"); got != 1 {
		t.Fatalf("active gauge = %v", got)
	}
	start := time.Now()
	rep, err := l.fs.Revoke(context.Background(), l.node, core.RevokeOptions{EvacDeadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leases != 1 || rep.SLO != slo {
		t.Fatalf("report %+v", rep)
	}
	if !rep.SLOMet || rep.Notice < slo {
		t.Fatalf("notice %v < SLO %v (report %+v)", rep.Notice, slo, rep)
	}
	if d := time.Since(start); d < slo {
		t.Fatalf("revocation finished %v after start, before the %v notice elapsed", d, slo)
	}
	l.checkEvacuated(t)
	if got := seriesValue(l.reg, "memfss_qos_lease_revocations_total", "outcome", "met"); got != 1 {
		t.Fatalf("met revocations = %d", got)
	}
	if got := seriesValue(l.reg, "memfss_qos_lease_revocations_total", "outcome", "violated"); got != 0 {
		t.Fatalf("violated revocations = %d", got)
	}
	ls := l.b.Leases()
	if len(ls) != 1 || ls[0].State != qos.LeaseRevoked || ls[0].EndedAt.IsZero() {
		t.Fatalf("lease after revoke: %+v", ls)
	}
	// The offer is gone: the node is being reclaimed.
	if got := gaugeValue(l.reg, "memfss_qos_supply_bytes"); got != 0 {
		t.Fatalf("revoked node still advertised: %v bytes", got)
	}
	if got := gaugeValue(l.reg, "memfss_qos_leases_active"); got != 0 {
		t.Fatalf("active gauge after revoke = %v", got)
	}
}

func TestRevokeForceViolatesSLO(t *testing.T) {
	l := newLeaseFS(t)
	l.lease(t, time.Minute)
	rep, err := l.fs.Revoke(context.Background(), l.node, core.RevokeOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Notice > time.Second {
		t.Fatalf("force revoke waited %v", rep.Notice)
	}
	if rep.SLOMet || rep.Notice >= time.Minute {
		t.Fatalf("forced revoke reported SLO met: %+v", rep)
	}
	if got := seriesValue(l.reg, "memfss_qos_lease_revocations_total", "outcome", "violated"); got != 1 {
		t.Fatalf("violated revocations = %d", got)
	}
	if got := seriesValue(l.reg, "memfss_qos_lease_revocations_total", "outcome", "met"); got != 0 {
		t.Fatalf("met revocations = %d", got)
	}
}

func TestRevokeEndsEarlyWhenLesseesVacate(t *testing.T) {
	l := newLeaseFS(t)
	ls := l.lease(t, time.Hour)
	// The lessee vacates during the notice window.
	time.AfterFunc(50*time.Millisecond, func() {
		if err := l.b.Release(ls.ID); err != nil {
			t.Error(err)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := l.fs.Revoke(ctx, l.node, core.RevokeOptions{})
	if err != nil {
		t.Fatalf("revoke waited out the window despite early release: %v", err)
	}
	// The released lease has no SLO grievance: nothing counted against it.
	if !rep.SLOMet {
		t.Fatalf("early release reported as violation: %+v", rep)
	}
	l.checkEvacuated(t)
	if got := l.b.Leases(); len(got) != 1 || got[0].State != qos.LeaseReleased {
		t.Fatalf("lease after early release: %+v", got)
	}
}

// TestRevokeCanceledContext: a canceled caller gets ctx.Err() at once, but
// the revocation it issued stands: the lease stays noticed, and no key
// moves before the notice ends.
func TestRevokeCanceledContext(t *testing.T) {
	l := newLeaseFS(t)
	l.lease(t, time.Minute)
	keys := l.victims.Server(0).Store().Stats().NumKeys
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := l.fs.Revoke(ctx, l.node, core.RevokeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("revoke on dead context: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("canceled revoke returned after %v", d)
	}
	time.Sleep(300 * time.Millisecond)
	if got := l.victims.Server(0).Store().Stats().NumKeys; got != keys || !l.member() || len(l.fs.Draining()) != 0 {
		t.Fatalf("keys %d -> %d, member %v, draining %v: eviction began inside the notice",
			keys, got, l.member(), l.fs.Draining())
	}
	if ls := l.b.Leases(); len(ls) != 1 || ls[0].State != qos.LeaseNoticed {
		t.Fatalf("lease after a canceled revoke: %+v", ls)
	}
}

func TestRevokeEvacErrorPropagates(t *testing.T) {
	l := newLeaseFS(t)
	l.lease(t, 0)
	l.proxies[0].SetPlan(faultwrap.Plan{DropVerbs: []string{"SCAN"}})
	_, err := l.fs.Revoke(context.Background(), l.node, core.RevokeOptions{EvacDeadline: 100 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "SCAN") {
		t.Fatalf("evac error lost: %v", err)
	}
}

// TestRevokeEmptyNode: a node that is no victim is an error; a victim
// with no leases is revoked with no wait.
func TestRevokeEmptyNode(t *testing.T) {
	l := newLeaseFS(t)
	if _, err := l.fs.Revoke(context.Background(), "ghost", core.RevokeOptions{}); err == nil {
		t.Fatal("revoked an unregistered node")
	}
	rep, err := l.fs.Revoke(context.Background(), l.node, core.RevokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leases != 0 || !rep.SLOMet || rep.Notice > time.Second {
		t.Fatalf("no-lease revoke: %+v", rep)
	}
	l.checkEvacuated(t)
}

func TestLeaseIDsUnique(t *testing.T) {
	b := qos.NewBroker(nil, nil, nil)
	if err := b.Advertise(qos.Offer{Node: "v1", Bytes: 1 << 30}); err != nil {
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
