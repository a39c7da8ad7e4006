package chaos

// Deterministic repros of ROADMAP item 1: a replica that missed writes
// while its victim was partitioned must never be served after the heal.
// The cluster is driven by direct calls — no timeline, no pacing — and the
// failure detector is probed by hand, so every step happens in the order
// written.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"memfss/internal/core"
	"memfss/internal/health"
)

const (
	staleStripe  = 4 << 10
	staleStripes = 16
	stalePath    = "/stale"
)

// newStaleCluster builds 2 own + 2 victims with 2 replicas and 4 KiB
// stripes. Its prober never fires on its own (probeByHand brings nodes
// back), so the repair queue runs only once the test says the heal is
// visible.
func newStaleCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := buildCluster(Topology{
		OwnNodes: 2, VictimNodes: 2,
		Redundancy: core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
		StripeSize: staleStripe,
		Retry:      chaosRetry,
		Health:     core.HealthPolicy{ProbeInterval: time.Hour},
		Repair:     core.RepairPolicy{QueueCap: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// writeV1 writes the 16-stripe v1 file and returns it with the number of
// its stripes that keep a copy on victim 1.
func writeV1(t *testing.T, c *Cluster) ([]byte, int) {
	t.Helper()
	v1 := seededBytes(1, staleStripes*staleStripe)
	if err := c.FS.WriteFile(stalePath, v1); err != nil {
		t.Fatal(err)
	}
	onVictim1 := len(c.Victims.Server(1).Store().KeysN("data:", 0))
	if onVictim1 == 0 {
		t.Fatal("no stripe keeps a copy on victim 1")
	}
	return v1, onVictim1
}

// patchFile is an RMW through an O_RDWR handle: WriteAt, then Close.
func patchFile(t *testing.T, fs *core.FileSystem, data []byte, off int64) {
	t.Helper()
	f, err := fs.OpenFile(stalePath, core.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatalf("acknowledged write failed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// probeByHand runs probe rounds until the detector calls every node Up.
func probeByHand(t *testing.T, fs *core.FileSystem) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		up := true
		for _, h := range fs.ProbeHealth() {
			up = up && h.State == health.Up
		}
		if up {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never all Up: %+v", fs.Health())
		}
		time.Sleep(time.Millisecond)
	}
}

// healAndRepair waits for the repair queue, scrubs, and returns how many
// copies repair and scrub rewrote since before.
func healAndRepair(t *testing.T, c *Cluster, before core.RepairStats) (repaired, scrubbed int) {
	t.Helper()
	probeByHand(t, c.FS)
	if !c.FS.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled: %+v", c.FS.RepairStats())
	}
	rep, err := c.FS.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrepairable) != 0 || len(rep.Deferred) != 0 {
		t.Fatalf("scrub after heal: %+v", rep)
	}
	return int(c.FS.RepairStats().Restored - before.Restored), len(rep.Restored)
}

// wrongStripes counts the stripes of got that differ from want.
func wrongStripes(got, want []byte) int {
	if len(got) != len(want) {
		return staleStripes
	}
	n := 0
	for i := 0; i < len(want); i += staleStripe {
		if !bytes.Equal(got[i:i+staleStripe], want[i:i+staleStripe]) {
			n++
		}
	}
	return n
}

// TestStaleReplicaAfterHeal is ROADMAP item 1's repro: v2 overwrites
// every stripe while victim 1 is partitioned, so each copy there misses
// it. After the heal the repair queue must rewrite every one of those
// copies as stale, and the file must read back v2.
func TestStaleReplicaAfterHeal(t *testing.T) {
	c := newStaleCluster(t)
	_, onVictim1 := writeV1(t, c)
	before := c.FS.RepairStats()

	c.Proxies[1].Pause()
	v2 := seededBytes(2, staleStripes*staleStripe)
	patchFile(t, c.FS, v2, 0)
	c.Proxies[1].Resume()

	repaired, scrubbed := healAndRepair(t, c, before)
	if repaired != onVictim1 || scrubbed != 0 {
		t.Errorf("repair restored %d copies and scrub %d; want the %d stale copies by repair alone",
			repaired, scrubbed, onVictim1)
	}
	// Each stale copy was an inspection that saw two writes, and the
	// journal names the slot repair replaced and what it held.
	if n := c.FS.Counters().ECGenConflicts; n < int64(onVictim1) {
		t.Errorf("ECGenConflicts = %d, want >= %d: replicated inspections saw two generations", n, onVictim1)
	}
	stale := 0
	for _, ev := range c.FS.Events().Events(1000, "repair") {
		if strings.HasPrefix(ev.Detail, "restored ") && strings.Contains(ev.Detail, "+1 copies [slot ") &&
			strings.Contains(ev.Detail, ": stale]") {
			stale++
		}
	}
	if stale != onVictim1 {
		t.Errorf("%d repair notes name a replaced stale copy, want %d", stale, onVictim1)
	}
	got, err := c.FS.ReadFile(stalePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := wrongStripes(got, v2); n != 0 {
		t.Fatalf("%d of %d stripes read back stale after the heal", n, staleStripes)
	}
}

// TestStaleReplicaAfterHealWrittenBeforeRepair lets the stale copy take a
// write too before repair runs: a second client, whose detector never saw
// the partition, patches the file right after the heal. Its write lands on
// both copies, so the stale copy is now partly new — yet still a write
// behind. A read taken then, and the read after repair, must both return
// every acknowledged byte.
func TestStaleReplicaAfterHealWrittenBeforeRepair(t *testing.T) {
	c := newStaleCluster(t)
	_, onVictim1 := writeV1(t, c)
	before := c.FS.RepairStats()

	c.Proxies[1].Pause()
	want := seededBytes(2, staleStripes*staleStripe)
	patchFile(t, c.FS, want, 0)
	c.Proxies[1].Resume()

	second, err := core.New(core.Config{
		Classes:    c.FS.Classes(),
		StripeSize: staleStripe,
		Password:   "chaos-secret",
		Redundancy: core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
		Retry:      chaosRetry,
		Health:     core.HealthPolicy{ProbeInterval: -1},
		Repair:     core.RepairPolicy{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	// Unaligned at both ends, so the edge stripes are written in place.
	patch, off := seededBytes(3, 9*staleStripe), int64(staleStripe/2)
	patchFile(t, second, patch, off)
	copy(want[off:], patch)

	got, err := c.FS.ReadFile(stalePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := wrongStripes(got, want); n != 0 {
		t.Fatalf("before repair: %d of %d stripes lost an acknowledged write", n, staleStripes)
	}
	if repaired, _ := healAndRepair(t, c, before); repaired != onVictim1 {
		t.Errorf("repair restored %d copies, want the %d stale ones", repaired, onVictim1)
	}
	got, err = c.FS.ReadFile(stalePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := wrongStripes(got, want); n != 0 {
		t.Fatalf("after repair: %d of %d stripes lost an acknowledged write", n, staleStripes)
	}
}
