package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestFsckIsReadOnly: a census changes nothing. After a partial drain
// left victim-0 half empty, Fsck sends no write, no delete, no deep
// probe, no lazy move and no repair enqueue, so every store keeps its
// bytes and keys; it reports the drain's strays (R = 1, RS(4,2)) and
// short stripes (R = 2) and no damage. Fsck used to read every file
// through VerifyFile and so undo the drain: under R = 1 victim-0 went
// from 41 881 B back to 87 964 B with 11 deep probes, 11 lazy moves and
// 11 repairs enqueued; under RS(4,2) it enqueued 46 repairs.
func TestFsckIsReadOnly(t *testing.T) {
	cases := []struct {
		name string
		red  Redundancy
	}{
		{"r1", Redundancy{}},
		{"r2", Redundancy{Mode: RedundancyReplicate, Replicas: 2}},
		{"rs42", rs42},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newTestFS(t, 6, 6, withRedundancy(c.red))
			for i := 0; i < 12; i++ {
				if err := d.fs.WriteFile(fmt.Sprintf("/r%d", i), randomBytes(int64(3000+i), 64<<10)); err != nil {
					t.Fatal(err)
				}
			}
			victim := d.victims.Server(0).Store()
			if _, err := d.fs.DrainNode(context.Background(), d.victims.Nodes[0].ID, victim.Stats().BytesUsed/2); err != nil {
				t.Fatal(err)
			}
			if !d.fs.WaitRepairIdle(20 * time.Second) {
				t.Fatal("repair queue never idled")
			}
			type held struct {
				bytes int64
				keys  []string
			}
			stores := func() map[string]held {
				m := map[string]held{}
				for id, st := range storesByID(d) {
					keys := st.Keys("")
					slices.Sort(keys)
					m[id] = held{st.Stats().BytesUsed, keys}
				}
				return m
			}
			before, counters, enqueued := stores(), d.fs.Counters(), d.fs.RepairStats().Enqueued
			rep, err := d.fs.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			after := stores()
			for id, h := range before {
				if a := after[id]; a.bytes != h.bytes || !slices.Equal(a.keys, h.keys) {
					t.Errorf("%s: %d B, %d keys before Fsck; %d B, %d keys after", id, h.bytes, len(h.keys), a.bytes, len(a.keys))
				}
			}
			now := d.fs.Counters()
			if now.DeepProbes != counters.DeepProbes || now.Repairs != counters.Repairs || d.fs.RepairStats().Enqueued != enqueued {
				t.Errorf("Fsck deep-probed %d, moved %d and enqueued %d stripes",
					now.DeepProbes-counters.DeepProbes, now.Repairs-counters.Repairs, d.fs.RepairStats().Enqueued-enqueued)
			}
			t.Logf("victim-0 %d B; %d stripes, %d short, %d stray keys, %d orphans, %d past EOF",
				victim.Stats().BytesUsed, rep.StripesChecked, rep.Short, rep.StrayKeys, rep.OrphanStripes, rep.PastEOFKeys)
			if len(rep.Damaged) != 0 || len(rep.Restored) != 0 || len(rep.Deferred) != 0 || rep.OrphanStripes != 0 {
				t.Errorf("Fsck = %+v; want no damage, restore, deferral or orphan", rep)
			}
			sorted, dataKeys := 0, 0
			for _, n := range rep.Nodes {
				sorted += n.InSlot + n.Stray + n.Orphan + n.PastEOF
			}
			for _, st := range storesByID(d) {
				dataKeys += len(st.Keys("data:"))
			}
			if len(rep.Nodes) != 12 || sorted != dataKeys {
				t.Errorf("the listing sorted %d keys over %d nodes; the stores hold %d", sorted, len(rep.Nodes), dataKeys)
			}
			if c.name == "r2" && rep.Short == 0 {
				t.Error("no short stripe reported after the drain deleted copies")
			}
			if c.name != "r2" && rep.StrayKeys == 0 {
				t.Error("no stray key reported after the drain moved keys off their slots")
			}
		})
	}
}

// TestCensusErasureHoleIsNotDamage: the stripes a grown RS(4,2) file has
// never written hold no shard anywhere, which a read returns as zeros;
// the census judges them by that same rule, so neither Fsck nor Scrub
// calls them damaged. Scrub used to report each one unrepairable.
func TestCensusErasureHoleIsNotDamage(t *testing.T) {
	d := newTestFS(t, 6, 6, withRedundancy(rs42))
	if err := d.fs.WriteFile("/sparse", randomBytes(7, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.Truncate("/sparse", 5*(4<<10)); err != nil {
		t.Fatal(err)
	}
	for _, census := range []func() (*CensusReport, error){d.fs.Fsck, d.fs.Scrub} {
		rep, err := census()
		if err != nil || len(rep.Damaged) != 0 || len(rep.Unrepairable) != 0 || rep.Short != 0 || rep.StripesChecked != 5 {
			t.Fatalf("census of a file with 4 hole stripes = %+v, %v; want 5 stripes checked, none short or damaged", rep, err)
		}
	}
}

// TestReinstallAfterLostDelValReply: a repair's compare-and-delete whose
// reply is lost is retried, and the retry answers "not deleted" because
// its first attempt already emptied the slot. The reinstall must still
// fill the slot. It used to stop there, leaving the slot empty for the
// next Scrub: the erasure chaos soak's "scrub restored 1 units the repair
// queue missed: … slot 2 on victim-2: missing".
func TestReinstallAfterLostDelValReply(t *testing.T) {
	d := newTestFS(t, 6, 0, withRedundancy(rs42))
	if err := d.fs.WriteFile("/f", randomBytes(72, 4<<10)); err != nil {
		t.Fatal(err)
	}
	f, err := d.fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	c := f.inspect(0, gatherAll)
	node, key, held := c.g.nodes[2], f.slotKey(c.sk, 2), c.g.slots[2].raw
	if n := storesByID(d)[node].Del(key); n != 1 { // the first DELVAL landed; its reply did not
		t.Fatalf("deleted %d keys, want 1", n)
	}
	var out fixOutcome
	f.reinstall(&out, node, key, held, held, "slot 2: stale")
	if rep, err := d.fs.Fsck(); err != nil || len(out.restored) != 1 || rep.Short != 0 {
		t.Fatalf("reinstall = %+v, then Fsck = %+v, %v; want the slot restored", out, rep, err)
	}
}
