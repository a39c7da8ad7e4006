package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"memfss/internal/stripe"
)

// drainModes are the three redundancy modes the drain tests run in.
var drainModes = []struct {
	name string
	red  Redundancy
}{
	{"r1", Redundancy{}},
	{"r2", Redundancy{Mode: RedundancyReplicate, Replicas: 2}},
	{"rs42", rs42},
}

// drainedDeploy writes 12 files of 64 KiB over 6 own and 6 victim stores
// (4 KiB stripes: 192 stripes), drains victim-0 to half its fill and
// returns the files and victim-0's fill after the drain.
func drainedDeploy(t *testing.T, red Redundancy, opts ...deployOpt) (*testDeploy, map[string][]byte, int64) {
	t.Helper()
	d := newTestFS(t, 6, 6, append([]deployOpt{withRedundancy(red)}, opts...)...)
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/r%d", i)
		files[p] = randomBytes(int64(3000+i), 64<<10)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	victim := d.victims.Server(0).Store()
	before := victim.Stats().BytesUsed
	rep, err := d.fs.DrainNode(context.Background(), d.victims.Nodes[0].ID, before/2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatalf("the drain moved nothing: %+v", rep)
	}
	return d, files, victim.Stats().BytesUsed
}

// TestFsckIsReadOnly: a census changes nothing. After a partial drain
// left victim-0 half empty, and with one stray key and (R = 2, RS(4,2))
// one short stripe seeded straight into the stores, Fsck sends no write,
// no delete and no repair enqueue, so every store keeps its bytes and
// keys; it reports the stray and the short stripe and no damage. Fsck
// used to read every file through VerifyFile and so undo the drain.
func TestFsckIsReadOnly(t *testing.T) {
	for _, c := range drainModes {
		t.Run(c.name, func(t *testing.T) {
			d, _, _ := drainedDeploy(t, c.red)
			if !d.fs.WaitRepairIdle(20 * time.Second) {
				t.Fatal("repair queue never idled")
			}
			all := storesByID(d)
			// The stray: slot 0 of /r0's first stripe copied onto a store
			// that neither holds nor serves a slot of it.
			f, err := d.fs.Open("/r0")
			if err != nil {
				t.Fatal(err)
			}
			sc := f.inspect(0, gatherAll)
			busy := slices.Clone(sc.g.nodes)
			for i := range sc.g.slots {
				busy = append(busy, sc.g.slots[i].at)
			}
			var ids []string
			for id := range all {
				if !slices.Contains(busy, id) {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			if err := all[ids[0]].Set(f.slotKey(sc.sk, 0), sc.g.slots[0].raw); err != nil {
				t.Fatal(err)
			}
			wantShort := 0
			if c.name != "r1" { // the short stripe: slot 0 of /r1's first stripe deleted
				g, err := d.fs.Open("/r1")
				if err != nil {
					t.Fatal(err)
				}
				gc := g.inspect(0, gatherHeaders)
				if n := all[gc.g.slots[0].at].Del(g.slotKey(gc.sk, 0)); n != 1 {
					t.Fatalf("deleted %d keys, want 1", n)
				}
				wantShort = 1
			}
			type held struct {
				bytes int64
				keys  []string
			}
			stores := func() map[string]held {
				m := map[string]held{}
				for id, st := range storesByID(d) {
					keys := st.KeysN("", 0)
					slices.Sort(keys)
					m[id] = held{st.Stats().BytesUsed, keys}
				}
				return m
			}
			before, enqueued := stores(), d.fs.RepairStats().Enqueued
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
			if n := d.fs.RepairStats().Enqueued - enqueued; n != 0 {
				t.Errorf("Fsck enqueued %d stripes", n)
			}
			t.Logf("%d stripes, %d short, %d stray keys, %d orphans, %d past EOF",
				rep.StripesChecked, rep.Short, rep.StrayKeys, rep.OrphanStripes, rep.PastEOFKeys)
			if len(rep.Damaged) != 0 || len(rep.Restored) != 0 || len(rep.Deferred) != 0 || rep.OrphanStripes != 0 {
				t.Errorf("Fsck = %+v; want no damage, restore, deferral or orphan", rep)
			}
			sorted, dataKeys := 0, 0
			for _, n := range rep.Nodes {
				sorted += n.InSlot + n.Stray + n.Orphan + n.PastEOF
			}
			for _, st := range storesByID(d) {
				dataKeys += len(st.KeysN("data:", 0))
			}
			if len(rep.Nodes) != 12 || sorted != dataKeys {
				t.Errorf("the listing sorted %d keys over %d nodes; the stores hold %d", sorted, len(rep.Nodes), dataKeys)
			}
			if rep.StrayKeys != 1 || rep.Short != wantShort {
				t.Errorf("Fsck found %d stray keys and %d short stripes; want the seeded 1 and %d", rep.StrayKeys, rep.Short, wantShort)
			}
		})
	}
}

// TestDrainSticks: a partial drain's bytes leave the victim for good. After
// victim-0 is drained to half, a read pass, the repair queue and Scrub
// leave it at or below its drained fill, and the census finds no stray
// key, no short stripe and nothing to restore. Lazy movement undid the
// drain in every mode: victim-0 ended where it started, Scrub restored 9
// copies (R = 2) and 28 shards (RS(4,2)), and RS(4,2) left 74 strays.
func TestDrainSticks(t *testing.T) {
	for _, c := range drainModes {
		t.Run(c.name, func(t *testing.T) {
			d, files, drained := drainedDeploy(t, c.red)
			for p, want := range files {
				if got, err := d.fs.ReadFile(p); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s after the drain: %v", p, err)
				}
			}
			if !d.fs.WaitRepairIdle(20 * time.Second) {
				t.Fatal("repair queue never idled")
			}
			scrub, err := d.fs.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := d.fs.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			now := d.victims.Server(0).Store().Stats().BytesUsed
			t.Logf("victim-0 %d B after the drain, %d B now; Scrub restored %d; %d stray keys, %d short stripes",
				drained, now, len(scrub.Restored), rep.StrayKeys, rep.Short)
			if now > drained || len(scrub.Restored) != 0 || rep.StrayKeys != 0 || rep.Short != 0 || len(rep.Damaged) != 0 {
				t.Errorf("the drain did not stick: victim-0 %d B (drained to %d), Scrub restored %v, Fsck = %+v",
					now, drained, scrub.Restored, rep)
			}
		})
	}
}

// TestHoleReadAsksSlotAndSuccessor: a read of a stripe no write reached
// asks the stripe's slot and that slot's successor, and no other store.
// The probe-order walk it replaces asked every node.
func TestHoleReadAsksSlotAndSuccessor(t *testing.T) {
	d := newTestFS(t, 2, 4, withHealth(HealthPolicy{ProbeInterval: -1}))
	f, err := d.fs.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), 5*(4<<10)); err != nil { // stripes 0-4 are holes
		t.Fatal(err)
	}
	sk := stripe.Key(f.rec.ID, 2)
	slot := f.targets(sk)[0]
	asked := []string{slot, d.fs.slots(f.placer, sk, 1, slot)[0]}
	all := storesByID(d)
	ops := func() map[string]int64 {
		m := map[string]int64{}
		for id, st := range all {
			m[id] = st.Stats().TotalOps
		}
		return m
	}
	before := ops()
	buf := make([]byte, 100)
	if n, err := f.ReadAt(buf, 2*(4<<10)); err != nil || n != len(buf) || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("hole read = %d, %v; want %d zeros", n, err, len(buf))
	}
	for id, n := range ops() {
		if d := n - before[id]; (d > 0) != slices.Contains(asked, id) {
			t.Errorf("%s took %d ops; only the slot %s and its successor %s may be asked", id, d, asked[0], asked[1])
		}
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
