package cluster

import (
	"fmt"
	"math"
	"testing"

	"memfss/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6*math.Max(1, math.Abs(b)) }

func TestAddNodeAndLookup(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	nodes := c.AddNodes("own", 3, DAS5)
	all := c.Nodes()
	if len(nodes) != 3 || len(all) != 3 {
		t.Fatalf("AddNodes = %d, Nodes() = %d", len(nodes), len(all))
	}
	for i, n := range all {
		if n != nodes[i] || n.ID != fmt.Sprintf("own-%d", i) {
			t.Fatalf("Nodes()[%d] = %s, want own-%d in creation order", i, n.ID, i)
		}
	}
}

func TestAddNodePanics(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	c.AddNode("a", DAS5)
	for _, fn := range []func(){
		func() { c.AddNode("a", DAS5) },
		func() { c.AddNode("b", NodeSpec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDAS5Spec(t *testing.T) {
	if DAS5.Cores != 16 || DAS5.MemoryBytes != 64<<30 || DAS5.NICBytesPerSec != 3e9 {
		t.Fatalf("DAS5 spec drifted: %+v", DAS5)
	}
}

func TestRequestLoad(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	n := c.AddNode("a", DAS5)
	n.AddRequestLoad(100)
	n.AddRequestLoad(50)
	if n.RequestLoad() != 150 {
		t.Fatalf("RequestLoad = %v", n.RequestLoad())
	}
	n.AddRequestLoad(-200) // clamps at zero
	if n.RequestLoad() != 0 {
		t.Fatalf("RequestLoad after over-remove = %v", n.RequestLoad())
	}
}

func TestUtilWindow(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	n0 := c.AddNodes("n", 2, DAS5)[0]

	w := c.StartWindow()
	// One task burning 16 core-seconds on a 16-core node over 10s -> CPU
	// util 10%. (1 core for 16s... schedule work of 16 core-s at 1 core:
	// runs 16s; we window 16s.)
	n0.CPU.Submit(16, nil)
	// A 3 GB flow n0 -> n1 at 3 GB/s takes 1s.
	c.Net.StartFlow("n-0", "n-1", 3e9, nil)
	e.Run()
	if !almost(e.Now(), 16) {
		t.Fatalf("run ended at %v, want 16", e.Now())
	}
	u0 := w.Node("n-0")
	if !almost(u0.CPUFrac, 1.0/16) {
		t.Fatalf("CPU util %v, want 1/16", u0.CPUFrac)
	}
	// 3e9 bytes over 16s window = 187.5 MB/s average egress.
	if !almost(u0.NetBytesPerSec, 3e9/16) {
		t.Fatalf("net rate %v, want %v", u0.NetBytesPerSec, 3e9/16)
	}
	u1 := w.Node("n-1")
	if !almost(u1.NetBytesPerSec, 3e9/16) {
		t.Fatalf("ingress side rate %v", u1.NetBytesPerSec)
	}
	if u1.CPUFrac != 0 {
		t.Fatalf("idle node CPU %v", u1.CPUFrac)
	}

	avg := w.GroupAverage([]string{"n-0", "n-1"})
	if !almost(avg.CPUFrac, 0.5/16) {
		t.Fatalf("group CPU %v", avg.CPUFrac)
	}
	if got := w.Node("ghost"); got != (NodeUtil{}) {
		t.Fatalf("ghost node util %+v", got)
	}
	if got := w.GroupAverage(nil); got != (NodeUtil{}) {
		t.Fatalf("empty group util %+v", got)
	}
}

func TestReservationLifecycle(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	c.AddNodes("n", 40, DAS5)
	rs := NewReservationSystem(c)
	own, err := rs.Reserve(8)
	if err != nil || len(own.Nodes) != 8 {
		t.Fatalf("reserve 8: %v", err)
	}
	tenant, err := rs.Reserve(32)
	if err != nil || len(tenant.Nodes) != 32 || tenant.ID == own.ID {
		t.Fatalf("reserve 32: %v", err)
	}
	for _, n := range tenant.Nodes {
		for _, o := range own.Nodes {
			if n == o {
				t.Fatalf("node %s reserved twice", n.ID)
			}
		}
	}
	if _, err := rs.Reserve(1); err == nil {
		t.Fatal("over-reservation accepted")
	}
	if _, err := rs.Reserve(0); err == nil {
		t.Fatal("zero reservation accepted")
	}
}

func TestSecondaryQueue(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	c.AddNodes("n", 10, DAS5)
	rs := NewReservationSystem(c)
	tenant, _ := rs.Reserve(6)
	other, _ := rs.Reserve(4)

	if err := tenant.OfferVictims(10 << 30); err != nil { // all 6 nodes
		t.Fatal(err)
	}
	if err := other.OfferVictims(10<<30, other.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	// Double-offer and foreign-node offers must fail.
	if err := tenant.OfferVictims(1<<30, tenant.Nodes[0]); err == nil {
		t.Fatal("double offer accepted")
	}
	if err := other.OfferVictims(1<<30, tenant.Nodes[1]); err == nil {
		t.Fatal("foreign node offer accepted")
	}
	if err := other.OfferVictims(0, other.Nodes[1]); err == nil {
		t.Fatal("zero cap accepted")
	}

	claimed := rs.ClaimVictims(3)
	if len(claimed) != 3 {
		t.Fatalf("claimed %d, want 3", len(claimed))
	}
	for _, o := range claimed {
		if o.MemoryBytes != 10<<30 {
			t.Fatalf("offer cap %d", o.MemoryBytes)
		}
	}
	// 7 offers (6 + 1): 3 claimed, 4 left, then none.
	rest := rs.ClaimVictims(0) // claim all
	if len(rest) != 4 {
		t.Fatalf("claim-all got %d, want the 4 unclaimed", len(rest))
	}
	if again := rs.ClaimVictims(0); len(again) != 0 {
		t.Fatalf("claimed %d offers twice", len(again))
	}
}

func TestClaimDeterministicOrder(t *testing.T) {
	var e sim.Engine
	c := New(&e)
	c.AddNodes("n", 5, DAS5)
	rs := NewReservationSystem(c)
	r, _ := rs.Reserve(5)
	if err := r.OfferVictims(1 << 30); err != nil {
		t.Fatal(err)
	}
	got := rs.ClaimVictims(5)
	for i := 1; i < len(got); i++ {
		if got[i-1].Node.ID >= got[i].Node.ID {
			t.Fatalf("claims out of order: %s >= %s", got[i-1].Node.ID, got[i].Node.ID)
		}
	}
}
