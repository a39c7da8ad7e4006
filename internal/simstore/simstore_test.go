package simstore

import (
	"math"
	"testing"

	"memfss/internal/cluster"
	"memfss/internal/sim"
)

func build(t *testing.T, ownN, victimN int, cfg Config) (*sim.Engine, *cluster.Cluster, *FS) {
	t.Helper()
	var e sim.Engine
	c := cluster.New(&e)
	own := c.AddNodes("own", ownN, cluster.DAS5)
	victims := c.AddNodes("victim", victimN, cluster.DAS5)
	fs, err := New(c, own, victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &e, c, fs
}

func TestNewValidation(t *testing.T) {
	var e sim.Engine
	c := cluster.New(&e)
	victims := c.AddNodes("v", 2, cluster.DAS5)
	if _, err := New(c, nil, victims, Config{OwnFraction: 0.5}); err == nil {
		t.Error("no own nodes accepted")
	}
	own := c.AddNodes("o", 1, cluster.DAS5)
	if _, err := New(c, own, victims, Config{OwnFraction: 1.5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := New(c, own, victims, Config{OwnFraction: 0.25, StripeSize: -1}); err == nil {
		t.Error("negative stripe accepted")
	}
}

func TestWriteCompletesAndStores(t *testing.T) {
	e, _, fs := build(t, 2, 4, Config{OwnFraction: 0.25})
	src := fs.own[0]
	var doneAt float64
	fs.Write(src, IO{Bytes: 128 << 20, RequestBytes: 1 << 20}, func() { doneAt = e.Now() })
	e.Run()
	if doneAt <= 0 {
		t.Fatal("write never completed")
	}
	var total int64
	for _, n := range append(fs.own, fs.victims...) {
		total += fs.StoredBytes(n.ID)
	}
	if total != 128<<20 {
		t.Fatalf("stored %d bytes, want %d", total, 128<<20)
	}
}

func TestPlacementFractionMatchesAlpha(t *testing.T) {
	e, _, fs := build(t, 8, 32, Config{OwnFraction: 0.25})
	for i := 0; i < 64; i++ {
		fs.Write(fs.own[i%8], IO{Bytes: 16 << 20, RequestBytes: 1 << 20}, nil)
	}
	e.Run()
	var ownB, vicB int64
	for _, n := range fs.own {
		ownB += fs.StoredBytes(n.ID)
	}
	for _, n := range fs.victims {
		vicB += fs.StoredBytes(n.ID)
	}
	frac := float64(ownB) / float64(ownB+vicB)
	if math.Abs(frac-0.25) > 0.06 {
		t.Fatalf("own fraction %.3f, want ~0.25", frac)
	}
}

func TestAlphaOneKeepsVictimsIdle(t *testing.T) {
	e, _, fs := build(t, 4, 8, Config{OwnFraction: 1.0})
	fs.Write(fs.own[0], IO{Bytes: 64 << 20, RequestBytes: 1 << 20}, nil)
	e.Run()
	for _, v := range fs.victims {
		if fs.StoredBytes(v.ID) != 0 {
			t.Fatalf("victim %s holds data at alpha=1", v.ID)
		}
	}
}

func TestVictimCapSpillsToOwn(t *testing.T) {
	e, _, fs := build(t, 2, 2, Config{OwnFraction: 0.0, VictimMemCap: 4 << 20})
	// alpha=0: everything goes to victims, but each victim caps at 4 MiB,
	// so most of a 64 MiB write must spill to own nodes.
	fs.Write(fs.own[0], IO{Bytes: 64 << 20, RequestBytes: 1 << 20}, nil)
	e.Run()
	for _, v := range fs.victims {
		if got := fs.StoredBytes(v.ID); got > 4<<20 {
			t.Fatalf("victim %s holds %d > cap", v.ID, got)
		}
	}
	var ownB int64
	for _, n := range fs.own {
		ownB += fs.StoredBytes(n.ID)
	}
	if ownB < 50<<20 {
		t.Fatalf("own nodes absorbed only %d spilled bytes", ownB)
	}
}

func TestStoreSideCosts(t *testing.T) {
	e, c, fs := build(t, 1, 1, Config{OwnFraction: 0.0})
	w := c.StartWindow()
	fs.Write(fs.own[0], IO{Bytes: 256 << 20, RequestBytes: 1 << 20}, nil)
	e.Run()
	u := w.Node("victim-0")
	if u.CPUFrac <= 0 {
		t.Fatal("store burned no CPU on the victim")
	}
	// This configuration funnels the full 3 GB/s into a single victim —
	// ~6x the per-victim rate of Figure 2 — so the bound scales
	// accordingly (the <5% Figure 2 shape is asserted in internal/eval).
	if u.CPUFrac > 0.20 {
		t.Fatalf("victim CPU %.3f out of line with the cost model", u.CPUFrac)
	}
	if u.MemBWFrac <= 0 {
		t.Fatal("store burned no memory bandwidth")
	}
	if u.NetBytesPerSec <= 0 {
		t.Fatal("no network traffic reached the victim")
	}
}

func TestReadFlowsFromStores(t *testing.T) {
	e, c, fs := build(t, 2, 2, Config{OwnFraction: 0.25})
	reader := fs.own[1]
	var done bool
	fs.Read(reader, IO{Bytes: 32 << 20, RequestBytes: 64 << 10}, func() { done = true })
	w := c.StartWindow()
	e.Run()
	if !done {
		t.Fatal("read never completed")
	}
	// The reader's NIC must have received the remote share of the bytes.
	if u := w.Node(reader.ID); u.NetBytesPerSec <= 0 {
		t.Fatal("reader received no bytes")
	}
}

func TestRequestLoadAccounting(t *testing.T) {
	e, _, fs := build(t, 1, 1, Config{OwnFraction: 0.0})
	victim := fs.victims[0]
	// Small requests (8 KiB) -> high request rate during the transfer.
	fs.Write(fs.own[0], IO{Bytes: 64 << 20, RequestBytes: 8 << 10}, nil)
	var seen float64
	e.After(0.001, func() { seen = victim.RequestLoad() })
	e.Run()
	if seen <= 0 {
		t.Fatal("no request load during small-request transfer")
	}
	if victim.RequestLoad() != 0 {
		t.Fatalf("request load %v lingers after completion", victim.RequestLoad())
	}
	// Large requests produce a much lower rate.
	e2, _, fs2 := build(t, 1, 1, Config{OwnFraction: 0.0})
	victim2 := fs2.victims[0]
	fs2.Write(fs2.own[0], IO{Bytes: 64 << 20, RequestBytes: 1 << 20}, nil)
	var seen2 float64
	e2.After(0.001, func() { seen2 = victim2.RequestLoad() })
	e2.Run()
	if seen2 <= 0 || seen2 >= seen {
		t.Fatalf("large requests load %v, small %v: want large < small", seen2, seen)
	}
}

func TestZeroByteIO(t *testing.T) {
	e, _, fs := build(t, 1, 1, Config{OwnFraction: 0.5})
	fired := false
	fs.Write(fs.own[0], IO{Bytes: 0}, func() { fired = true })
	if !fired {
		t.Fatal("zero-byte write did not complete immediately")
	}
	e.Run()
}

func TestRelease(t *testing.T) {
	e, _, fs := build(t, 2, 2, Config{OwnFraction: 0.5})
	fs.Write(fs.own[0], IO{Bytes: 32 << 20, RequestBytes: 1 << 20}, nil)
	e.Run()
	fs.Release(16 << 20)
	var total int64
	for _, n := range append(fs.own, fs.victims...) {
		total += fs.StoredBytes(n.ID)
	}
	if total > 17<<20 || total < 15<<20 {
		t.Fatalf("after releasing half, %d bytes remain", total)
	}
	fs.Release(1 << 40) // over-release clamps
	fs.Release(1)       // empty store: no panic
}
