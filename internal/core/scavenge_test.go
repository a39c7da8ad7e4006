package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"memfss/internal/container"
	"memfss/internal/hrw"
)

func TestAddVictimClass(t *testing.T) {
	d := newTestFS(t, 2, 2)
	before := randomBytes(61, 60_000)
	if err := d.fs.WriteFile("/before", before); err != nil {
		t.Fatal(err)
	}

	extra, err := StartLocalStores(3, "victimB", "test-secret", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(extra.Close)
	if err := d.fs.AddVictimClass(ClassSpec{
		Name:   "victimB",
		Weight: 0, // aggressive: attract a large share of new data
		Nodes:  extra.Nodes,
		Victim: true,
		Limits: container.Limits{MemoryBytes: 1 << 30},
	}); err != nil {
		t.Fatal(err)
	}

	after := randomBytes(62, 200_000)
	if err := d.fs.WriteFile("/after", after); err != nil {
		t.Fatal(err)
	}

	// Both files must read back.
	for path, want := range map[string][]byte{"/before": before, "/after": after} {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after class add: %v", path, err)
		}
	}

	// The new class must actually hold data from the new file.
	var newClassBytes int64
	for i := range extra.Nodes {
		newClassBytes += extra.Server(i).Store().Stats().BytesUsed
	}
	if newClassBytes == 0 {
		t.Fatal("new victim class holds no data")
	}
	if len(d.fs.Classes()) != 3 {
		t.Fatalf("classes = %d, want 3", len(d.fs.Classes()))
	}
}

func TestAddVictimClassValidation(t *testing.T) {
	d := newTestFS(t, 1, 0)
	if err := d.fs.AddVictimClass(ClassSpec{Name: "x", Nodes: []NodeSpec{{ID: "n", Addr: "a"}}}); err == nil {
		t.Error("non-victim class accepted")
	}
	if err := d.fs.AddVictimClass(ClassSpec{Name: "x", Victim: true}); err == nil {
		t.Error("empty class accepted")
	}
	if err := d.fs.AddVictimClass(ClassSpec{
		Name: "x", Victim: true,
		Nodes:  []NodeSpec{{ID: "n", Addr: "a"}},
		Limits: container.Limits{MemoryBytes: -1},
	}); err == nil {
		t.Error("bad limits accepted")
	}
}

func TestEvacuateNode(t *testing.T) {
	d := newTestFS(t, 2, 4)
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/ev%d", i)
		files[path] = randomBytes(int64(70+i), 50_000)
		if err := d.fs.WriteFile(path, files[path]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	if _, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); err != nil {
		t.Fatal(err)
	}

	// The victim store must be empty and out of the class list.
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("evacuated store still holds %d bytes", st.BytesUsed)
	}
	for _, cls := range d.fs.Classes() {
		for _, n := range cls.Nodes {
			if n.ID == victimID {
				t.Fatal("evacuated node still in class list")
			}
		}
	}

	// Every file must remain fully readable from its stripes' new slots.
	for path, want := range files {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after evacuation: %v", path, err)
		}
	}

	// New files must avoid the evacuated node.
	if err := d.fs.WriteFile("/post", randomBytes(99, 80_000)); err != nil {
		t.Fatal(err)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatal("new data landed on evacuated node")
	}
}

func TestEvacuateOwnNodeRefused(t *testing.T) {
	d := newTestFS(t, 2, 2)
	if _, err := d.fs.Evacuate(context.Background(), d.own.Nodes[0].ID, EvacOptions{}); err == nil {
		t.Fatal("evacuating an own node must be refused")
	}
	if _, err := d.fs.Evacuate(context.Background(), "bogus", EvacOptions{}); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestEvacuateWithReplication(t *testing.T) {
	d := newTestFS(t, 3, 3, withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	data := randomBytes(81, 100_000)
	if err := d.fs.WriteFile("/rep", data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.Evacuate(context.Background(), d.victims.Nodes[1].ID, EvacOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := d.fs.ReadFile("/rep")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after evacuation: %v", err)
	}
}

// TestEvacuationRestoresRedundancy: each evacuation copies a key to the
// node that holds its slot once the source has left, and the repair queue
// refills every slot the release re-seats, so after each one every stripe
// is back at k+m shards (R copies) with no Scrub. The parent left RS(4,2)
// stripes at 5 and 4 of 6 and, after the third evacuation, every file
// unreadable; under R = 2 it left stripes at one copy, and with no copy
// on any slot, that Scrub could not restore.
func TestEvacuationRestoresRedundancy(t *testing.T) {
	cases := []struct {
		name       string
		own, vict  int
		red        Redundancy
		evacuation int
	}{
		{"rs42", 6, 9, Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}, 3},
		{"r2", 6, 6, Redundancy{Mode: RedundancyReplicate, Replicas: 2}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newTestFS(t, c.own, c.vict, withRedundancy(c.red))
			files := map[string][]byte{}
			for i := 0; i < 12; i++ {
				p := fmt.Sprintf("/r%d", i)
				files[p] = randomBytes(int64(3000+i), 64<<10)
				if err := d.fs.WriteFile(p, files[p]); err != nil {
					t.Fatal(err)
				}
			}
			for e := 0; e < c.evacuation; e++ {
				if _, err := d.fs.Evacuate(context.Background(), d.victims.Nodes[e].ID, EvacOptions{}); err != nil {
					t.Fatalf("evacuation %d: %v", e+1, err)
				}
				if !d.fs.WaitRepairIdle(20 * time.Second) {
					t.Fatalf("evacuation %d: repair queue never idled", e+1)
				}
				rep, err := d.fs.Scrub()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Short != 0 {
					t.Errorf("evacuation %d: %d of %d stripes short of their slots", e+1, rep.Short, rep.StripesChecked)
				}
				if len(rep.Restored) != 0 || len(rep.Unrepairable) != 0 || len(rep.Deferred) != 0 {
					t.Errorf("evacuation %d: scrub restored %v, unrepairable %v, deferred %v",
						e+1, rep.Restored, rep.Unrepairable, rep.Deferred)
				}
				for p, want := range files {
					if got, err := d.fs.ReadFile(p); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("evacuation %d: %s reads back wrong: %v", e+1, p, err)
					}
				}
			}
		})
	}
}

// TestUnreplicatedFileAfterEvacuation: an R = 1 stripe whose only slot
// sat on the evacuated node lives on the slot's next node after release,
// so an in-place overwrite reaches it (5 of 6 used to fail with "unknown
// node"), reads return it, and the census finds every key in its slot.
func TestUnreplicatedFileAfterEvacuation(t *testing.T) {
	d := newTestFS(t, 2, 4)
	var paths []string
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/u%d", i)
		paths = append(paths, p)
		if err := d.fs.WriteFile(p, randomBytes(int64(3100+i), 50_000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.fs.Evacuate(context.Background(), d.victims.Nodes[0].ID, EvacOptions{}); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i, p := range paths {
		f, err := d.fs.OpenFile(p, O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = randomBytes(int64(3200+i), 50_000)
		if _, err := f.WriteAt(files[p], 0); err != nil {
			t.Errorf("overwrite of %s after evacuation: %v", p, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if t.Failed() {
		return
	}
	for pass := 0; pass < 3; pass++ {
		for p, want := range files {
			if got, err := d.fs.ReadFile(p); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d: %s reads back wrong: %v", pass, p, err)
			}
		}
	}
	if rep, err := d.fs.Fsck(); err != nil || rep.StrayKeys != 0 || rep.Short != 0 || len(rep.Damaged) != 0 {
		t.Fatalf("Fsck after the evacuation and the overwrites = %+v, %v; want every key in its slot", rep, err)
	}
}

func TestMonitorEvacuatesOnPressure(t *testing.T) {
	d := newTestFS(t, 2, 2)
	// Cap victim 0 tightly, then fill the system until it crosses the
	// pressure watermark.
	victim0 := d.victims.Server(0).Store()

	var logLines []string
	mon := NewMonitor(d.fs, 20*time.Millisecond, func(format string, args ...any) {
		logLines = append(logLines, fmt.Sprintf(format, args...))
	})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	defer mon.Stop()

	files := map[string][]byte{}
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/m%d", i)
		files[p] = randomBytes(int64(90+i), 60_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the tenant wanting memory back: shrink the cap below usage.
	used := victim0.Stats().BytesUsed
	if used == 0 {
		t.Skip("placement left victim 0 empty for this seed")
	}
	victim0.SetMaxMemory(used / 2)

	deadline := time.Now().Add(5 * time.Second)
	for victim0.Stats().BytesUsed != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("monitor did not evacuate pressured victim (used=%d)", victim0.Stats().BytesUsed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for path, want := range files {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after monitor evacuation: %v", path, err)
		}
	}
	mon.Stop()
	mon.Stop() // idempotent
	if len(logLines) == 0 {
		t.Error("monitor logged nothing about the evacuation")
	}
}

func TestApplyVictimCaps(t *testing.T) {
	d := newTestFS(t, 1, 2)
	if err := d.fs.ApplyVictimCaps(); err != nil {
		t.Fatal(err)
	}
	for i := range d.victims.Nodes {
		if got := d.victims.Server(i).Store().Stats().MaxMemory; got != 1<<30 {
			t.Fatalf("victim %d cap = %d, want %d", i, got, int64(1<<30))
		}
	}
	// Own nodes must stay uncapped.
	if got := d.own.Server(0).Store().Stats().MaxMemory; got != 0 {
		t.Fatalf("own node capped to %d", got)
	}
}

func TestParseDataKey(t *testing.T) {
	cases := []struct {
		key       string
		id, shard string
		ok        bool
	}{
		{"data:f-12#3", "f-12", "", true},
		{"data:f-12#3/s2", "f-12", "2", true},
		{"meta:/x", "", "", false},
		{"data:nohash", "", "", false},
		{"data:#3", "", "", false},
	}
	for _, c := range cases {
		id, shard, ok := parseDataKey(c.key)
		if id != c.id || shard != c.shard || ok != c.ok {
			t.Errorf("parseDataKey(%q) = %q %q %v, want %q %q %v",
				c.key, id, shard, ok, c.id, c.shard, c.ok)
		}
	}
}

func TestVerifyFileDetectsLoss(t *testing.T) {
	d := newTestFS(t, 2, 2)
	if err := d.fs.WriteFile("/v", randomBytes(7, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.VerifyFile("/v"); err != nil {
		t.Fatalf("healthy file failed verify: %v", err)
	}
	// Destroy the stripes everywhere (simulating loss of all copies).
	for i := range d.own.Nodes {
		st := d.own.Server(i).Store()
		for _, k := range st.Keys("data:") {
			st.Del(k)
		}
	}
	for i := range d.victims.Nodes {
		st := d.victims.Server(i).Store()
		for _, k := range st.Keys("data:") {
			st.Del(k)
		}
	}
	// With all stores reachable but data gone, stripes read as holes —
	// verify still passes structurally. Kill the stores instead to force
	// unreachability and a hard error.
	d.own.Close()
	d.victims.Close()
	if err := d.fs.VerifyFile("/v"); err == nil {
		t.Fatal("verify passed with every store dead")
	}
}

// Scavenging weight math: the α=25% configuration of the paper's Figure 2
// sends ~75% of stripes to the victim class.
func TestPaperAlphaWeights(t *testing.T) {
	d, err := hrw.DeltaForOwnFraction(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := hrw.OwnFractionForDelta(d); got < 0.24 || got > 0.26 {
		t.Fatalf("round trip alpha = %v", got)
	}
}
