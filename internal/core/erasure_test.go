package core

// Erasure-coding hardening tests: degraded writes that tolerate up to m
// shard failures, generation-tagged shards that make mixed-generation
// reconstruction impossible, repair enqueue on degraded reads, the
// revocation write fence, and an RS(4,2) chaos soak with a mid-workload
// node kill. These pin the paper's reliability story for the erasure
// mode at the same bar the replicated mode already meets.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"memfss/internal/erasure"
	"memfss/internal/faultwrap"
	"memfss/internal/health"
	"memfss/internal/kvstore"
	"memfss/internal/stripe"
)

// storesByID maps node IDs to their in-process stores for direct
// shard-level inspection and tampering.
func storesByID(d *testDeploy) map[string]*kvstore.Store {
	m := map[string]*kvstore.Store{}
	for i, n := range d.own.Nodes {
		m[n.ID] = d.own.Server(i).Store()
	}
	if d.victims != nil {
		for i, n := range d.victims.Nodes {
			m[n.ID] = d.victims.Server(i).Store()
		}
	}
	return m
}

// stripeTargets resolves stripe idx of path to its raw stripe key and
// placement order under the file's current record.
func stripeTargets(t *testing.T, d *testDeploy, path string, idx int64) (string, []string) {
	t.Helper()
	f, err := d.fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sk := stripe.Key(f.rec.ID, idx)
	return sk, f.targets(sk)
}

// TestErasureTornStripeGeneration plants a torn write — m shards of a
// newer generation over a committed stripe, exactly what a writer crash
// after m shard puts leaves behind — and demands the read return the
// committed bytes (never a cross-generation join), count the conflict,
// and converge the stripe back to a single write via the repair queue.
func TestErasureTornStripeGeneration(t *testing.T) {
	d := newTestFS(t, 6, 0,
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}),
		withRetry(fastRetry))
	data := randomBytes(11, 3000) // one stripe
	if err := d.fs.WriteFile("/torn", data); err != nil {
		t.Fatal(err)
	}
	sk, nodes := stripeTargets(t, d, "/torn", 0)
	stores := storesByID(d)

	// Learn the committed write's tag from an untouched slot, and keep the
	// original bytes of the slots about to be clobbered.
	raw2, ok, err := stores[nodes[2]].Get(shardKey(dataKey(sk), 2))
	if err != nil || !ok {
		t.Fatalf("shard 2 missing after write: ok=%v err=%v", ok, err)
	}
	gen, id, payload, err := erasure.ParseShard(raw2)
	if err != nil {
		t.Fatalf("stored shard does not parse: %v", err)
	}
	orig := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		raw, ok, err := stores[nodes[i]].Get(shardKey(dataKey(sk), i))
		if err != nil || !ok {
			t.Fatalf("shard %d missing after write: ok=%v err=%v", i, ok, err)
		}
		orig[i] = raw
	}

	// The torn write: a higher generation, a distinct write ID, and only
	// m=2 shards landed — strictly fewer than k, so it can never win.
	tornID := id + 1
	for i := 0; i < 2; i++ {
		junk := randomBytes(int64(40+i), len(payload))
		if err := stores[nodes[i]].Set(shardKey(dataKey(sk), i), erasure.WrapShard(gen+1, tornID, junk)); err != nil {
			t.Fatal(err)
		}
	}

	got, err := d.fs.ReadFile("/torn")
	if err != nil {
		t.Fatalf("read over a torn stripe: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mixed shards across generations: bytes differ from the committed write")
	}
	c := d.fs.Counters()
	if c.ECGenConflicts == 0 {
		t.Fatal("mixed-generation stripe read counted no generation conflict")
	}
	if c.ECReconstructs == 0 {
		t.Fatal("read with two data shards lost to a torn write did not reconstruct")
	}
	if st := d.fs.RepairStats(); st.Enqueued == 0 {
		t.Fatal("degraded read enqueued no repair for the torn stripe")
	}
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled: %+v", d.fs.RepairStats())
	}

	// Repair must converge every slot back to the committed (gen, id) —
	// the torn shards replaced by reconstructions of the original ones.
	for i, node := range nodes {
		raw, ok, err := stores[node].Get(shardKey(dataKey(sk), i))
		if err != nil || !ok {
			t.Fatalf("slot %d empty after repair: ok=%v err=%v", i, ok, err)
		}
		g, wid, _, err := erasure.ParseShard(raw)
		if err != nil {
			t.Fatalf("slot %d unparseable after repair: %v", i, err)
		}
		if g != gen || wid != id {
			t.Fatalf("slot %d tagged (gen=%d id=%d) after repair, want the committed (gen=%d id=%d)",
				i, g, wid, gen, id)
		}
		if i < 2 && !bytes.Equal(raw, orig[i]) {
			t.Fatalf("slot %d bytes differ from the original shard after repair", i)
		}
	}
	got, err = d.fs.ReadFile("/torn")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after convergence: %v", err)
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || len(rep.Unrepairable) != 0 {
		t.Fatalf("scrub found work after repair converged the stripe: %+v", rep)
	}
}

// TestErasureDegradedReadRepairsMissingShard deletes one data shard on a
// node the detector then calls Down: the read must reconstruct around it,
// enqueue the stripe, and — once the node recovers — the repair queue must
// rebuild exactly the missing shard from any k survivors.
func TestErasureDegradedReadRepairsMissingShard(t *testing.T) {
	d := newTestFS(t, 6, 0,
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}),
		withRetry(fastRetry),
		withHealth(HealthPolicy{ProbeInterval: -1})) // detector opinion is test-driven
	data := randomBytes(22, 10_000)
	if err := d.fs.WriteFile("/miss", data); err != nil {
		t.Fatal(err)
	}
	sk, nodes := stripeTargets(t, d, "/miss", 0)
	stores := storesByID(d)
	victim := nodes[0]
	key := shardKey(dataKey(sk), 0)
	if n := stores[victim].Del(key); n != 1 {
		t.Fatalf("deleted %d copies of %s, want 1", n, key)
	}
	forceDown(t, d.fs, victim)

	got, err := d.fs.ReadFile("/miss")
	if err != nil {
		t.Fatalf("read with a data shard lost on a Down node: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstructed bytes differ")
	}
	c := d.fs.Counters()
	if c.ECReconstructs == 0 {
		t.Fatal("no reconstruction counted despite a missing data shard")
	}
	if st := d.fs.RepairStats(); st.Enqueued == 0 {
		t.Fatal("degraded read enqueued nothing")
	}

	forceUp(t, d.fs, victim)
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled after recovery: %+v", d.fs.RepairStats())
	}
	if _, ok, _ := stores[victim].Get(key); !ok {
		t.Fatal("repair did not rebuild the missing shard on the recovered node")
	}
	if st := d.fs.RepairStats(); st.Restored == 0 {
		t.Fatalf("repair restored nothing: %+v", st)
	}
	got, err = d.fs.ReadFile("/miss")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after repair: %v", err)
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || len(rep.Unrepairable) != 0 {
		t.Fatalf("scrub found work the repair queue should have done: %+v", rep)
	}
}

// TestErasureDegradedWriteExactlyM kills exactly m=2 of the victim
// stores: every erasure write must degrade (k shards landed) instead of
// failing, enqueue repair, and stay readable — and a third loss must turn
// writes into hard failures, not silent unreadable stripes.
func TestErasureDegradedWriteExactlyM(t *testing.T) {
	d := newTestFS(t, 6, 6,
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}),
		withRetry(fastRetry))
	if err := d.fs.WriteFile("/pre", randomBytes(1, 9000)); err != nil {
		t.Fatalf("sanity write with every node up: %v", err)
	}
	d.victims.Server(4).Close()
	d.victims.Server(5).Close()

	files := map[string][]byte{}
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/deg%d", i)
		files[path] = randomBytes(int64(100+i), 12_000)
		if err := d.fs.WriteFile(path, files[path]); err != nil {
			t.Fatalf("write with m nodes dead must degrade, not fail: %v", err)
		}
	}
	c := d.fs.Counters()
	if c.DegradedWrites == 0 {
		t.Fatal("no degraded writes recorded despite m dead shard targets")
	}
	if st := d.fs.RepairStats(); st.Enqueued == 0 {
		t.Fatal("degraded erasure writes enqueued no repair")
	}
	for path, want := range files {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %s written under m failures: %v", path, err)
		}
	}

	// m+1 failures: fewer than k shards can land, so the write must
	// fail loudly.
	d.victims.Server(3).Close()
	if err := d.fs.WriteFile("/fail", randomBytes(9, 64_000)); err == nil {
		t.Fatal("write with m+1 dead shard targets must fail, not fake success")
	}
}

// TestErasureWriteFencesDrainingNode pins the revocation fence on the
// erasure path: a draining shard target is skipped (counted as fenced),
// the write degrades, and no shard key ever lands on the fenced node —
// then repair restores the withheld shards once the drain lifts.
func TestErasureWriteFencesDrainingNode(t *testing.T) {
	d := newTestFS(t, 6, 0,
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 3, ParityShards: 2}),
		withRetry(fastRetry))
	node := d.own.Nodes[5].ID
	stores := storesByID(d)
	d.fs.detector.SetDraining(node, true)

	data := randomBytes(44, 80_000) // 20 stripes: some place on node 5
	if err := d.fs.WriteFile("/fence", data); err != nil {
		t.Fatalf("write with one draining target must degrade, not fail: %v", err)
	}
	c := d.fs.Counters()
	if c.FencedWrites == 0 {
		t.Fatal("no fenced writes counted despite a draining shard target")
	}
	if c.DegradedWrites == 0 {
		t.Fatal("fenced shard writes did not degrade the span writes")
	}
	if keys := stores[node].Keys("data:"); len(keys) != 0 {
		t.Fatalf("%d shard keys crossed the drain fence onto %s", len(keys), node)
	}
	got, err := d.fs.ReadFile("/fence")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read with shards withheld from the draining node: %v", err)
	}

	d.fs.detector.SetDraining(node, false)
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled after the drain lifted: %+v", d.fs.RepairStats())
	}
	if keys := stores[node].Keys("data:"); len(keys) == 0 {
		t.Fatal("repair restored no shards to the undrained node")
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || len(rep.Unrepairable) != 0 {
		t.Fatalf("scrub found work after post-drain repair: %+v", rep)
	}
	got, err = d.fs.ReadFile("/fence")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after post-drain repair: %v", err)
	}
}

// TestErasureChaosSoak moved to internal/chaos (runner-based), keeping its
// name and assertion strength.

// storeOpCount sums memfss_kvstore_op_seconds observations for one
// command verb on one node class ("" for every class).
func storeOpCount(fs *FileSystem, op, class string) int64 {
	var n int64
	if f := findFamily(fs.obs.reg.Snapshot(), "memfss_kvstore_op_seconds"); f != nil {
		for _, s := range f.Series {
			if s.Labels.Get("op") == op && (class == "" || s.Labels.Get("class") == class) {
				n += s.Count
			}
		}
	}
	return n
}

// TestErasureWholeStripeOverwriteReadsHeadersOnly overwrites a full
// RS(4,2) stripe in place: the write replaces every byte, so all it may
// fetch is each slot's 18-byte header — one ranged read per slot, no
// whole-shard GET, no reconstruction — and its generation must still
// outbid every generation present, an orphan's included.
func TestErasureWholeStripeOverwriteReadsHeadersOnly(t *testing.T) {
	const stripeSize = 64 << 10
	d := newTestFS(t, 6, 0,
		withStripeSize(stripeSize),
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}))
	v1 := randomBytes(21, stripeSize)
	if err := d.fs.WriteFile("/whole", v1); err != nil {
		t.Fatal(err)
	}
	sk, nodes := stripeTargets(t, d, "/whole", 0)
	stores := storesByID(d)

	// Plant an orphan: slot 5 carries a far newer generation from a write
	// that never completed. Only a probe of every slot can see it.
	const orphanGen = 40
	orphanKey := shardKey(dataKey(sk), 5)
	raw, ok, err := stores[nodes[5]].Get(orphanKey)
	if err != nil || !ok {
		t.Fatalf("shard 5 missing after write: ok=%v err=%v", ok, err)
	}
	_, _, body, err := erasure.ParseShard(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := stores[nodes[5]].Set(orphanKey, erasure.WrapShard(orphanGen, 0xdead, body)); err != nil {
		t.Fatal(err)
	}

	f, err := d.fs.OpenFile("/whole", O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	gets, ranges := storeOpCount(d.fs, "GET", ""), storeOpCount(d.fs, "GETRANGE", "")
	recBefore := d.fs.Counters().ECReconstructs
	v2 := randomBytes(22, stripeSize)
	if _, err := f.WriteAt(v2, 0); err != nil {
		t.Fatal(err)
	}
	gets, ranges = storeOpCount(d.fs, "GET", "")-gets, storeOpCount(d.fs, "GETRANGE", "")-ranges
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Every read the write issued was a HeaderSize-byte range: bytes read
	// are bounded by ranges × HeaderSize.
	if gets != 0 || ranges != 6 {
		t.Fatalf("whole-stripe overwrite issued %d GET and %d GETRANGE, want 0 and 6 (one header per slot)", gets, ranges)
	}
	if read := ranges * erasure.HeaderSize; read >= 1<<10 {
		t.Fatalf("whole-stripe overwrite read %d bytes, want < 1 KiB", read)
	}
	if n := d.fs.Counters().ECReconstructs - recBefore; n != 0 {
		t.Fatalf("whole-stripe overwrite reconstructed %d times, want 0", n)
	}

	// The new generation wins on every slot, above the orphan's.
	for i, node := range nodes {
		raw, ok, err := stores[node].Get(shardKey(dataKey(sk), i))
		if err != nil || !ok {
			t.Fatalf("slot %d empty after overwrite: ok=%v err=%v", i, ok, err)
		}
		gen, _, _, err := erasure.ParseShard(raw)
		if err != nil || gen != orphanGen+1 {
			t.Fatalf("slot %d generation %d (err %v), want %d", i, gen, err, orphanGen+1)
		}
	}
	got, err := d.fs.ReadFile("/whole")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after overwrite returned the wrong bytes (err %v)", err)
	}

	// A partial overwrite still read-modify-writes: whole shards fetched
	// with GET, no header probe. (The ReadFile above fetches with GETRANGE
	// and abandons at most one straggler, after a hedge, which may report
	// inside this window.)
	f, err = d.fs.OpenFile("/whole", O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	gets, ranges = storeOpCount(d.fs, "GET", ""), storeOpCount(d.fs, "GETRANGE", "")
	if _, err := f.WriteAt([]byte("patch"), 100); err != nil {
		t.Fatal(err)
	}
	gets, ranges = storeOpCount(d.fs, "GET", "")-gets, storeOpCount(d.fs, "GETRANGE", "")-ranges
	if gets != 6 || ranges > 1 {
		t.Fatalf("partial overwrite issued %d GET and %d GETRANGE, want 6 and no header probes", gets, ranges)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	copy(v2[100:], "patch")
	if got, err = d.fs.ReadFile("/whole"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after partial overwrite returned the wrong bytes (err %v)", err)
	}
}

// TestErasureWindowedReads reads windows that start and end inside
// shards, across shard and stripe boundaries and past the file's end,
// healthy and with a data shard gone (so the window comes out of
// reconstructed payloads), then again after a metadata-only truncate
// that leaves full-size shards behind a shorter stripe.
func TestErasureWindowedReads(t *testing.T) {
	d := newTestFS(t, 6, 0,
		withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}))
	data := randomBytes(31, 2*4096+1001)
	if err := d.fs.WriteFile("/win", data); err != nil {
		t.Fatal(err)
	}
	check := func(label string, want []byte) {
		t.Helper()
		f, err := d.fs.Open("/win")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for _, w := range [][2]int{{0, 1}, {1, 1023}, {1023, 2}, {1000, 3100}, {4090, 12}, {4096, 4096}, {8000, 5000}, {0, len(want) + 7}} {
			off, l := w[0], w[1]
			buf := bytes.Repeat([]byte{0xaa}, l)
			n, err := f.ReadAt(buf, int64(off))
			exp := want[min(off, len(want)):min(off+l, len(want))]
			if n != len(exp) || !bytes.Equal(buf[:n], exp) || (err != nil && n == l) {
				t.Fatalf("%s: ReadAt(off=%d,len=%d) = %d bytes, err %v; want the file's %d bytes there", label, off, l, n, err, len(exp))
			}
		}
	}
	check("healthy", data)

	sk, nodes := stripeTargets(t, d, "/win", 0)
	if n := storesByID(d)[nodes[1]].Del(shardKey(dataKey(sk), 1)); n != 1 {
		t.Fatalf("deleted %d shards, want 1", n)
	}
	check("data shard 1 of stripe 0 lost", data)

	if err := d.fs.Truncate("/win", 4096+500); err != nil {
		t.Fatal(err)
	}
	check("truncated", data[:4096+500])

	// The shortened stripe keeps its full-size shards: a degraded read of
	// it rebuilds from shards longer than the stripe's length implies.
	sk, nodes = stripeTargets(t, d, "/win", 1)
	if n := storesByID(d)[nodes[0]].Del(shardKey(dataKey(sk), 0)); n != 1 {
		t.Fatalf("deleted %d shards, want 1", n)
	}
	check("truncated, data shard 0 of the shortened stripe lost", data[:4096+500])
}

// hedgedBy reads memfss_fs_ec_hedged_reads_total{reason}: how many stripe
// reads fetched beyond their first k shards for that reason.
func hedgedBy(fs *FileSystem, reason string) int64 {
	var n int64
	if f := findFamily(fs.obs.reg.Snapshot(), "memfss_fs_ec_hedged_reads_total"); f != nil {
		for _, s := range f.Series {
			if s.Labels.Get("reason") == reason {
				n += int64(s.Value)
			}
		}
	}
	return n
}

var rs42 = Redundancy{Mode: RedundancyErasure, DataShards: 4, ParityShards: 2}

// TestErasureHealthyReadsDoNotReconstruct pins what ECReconstructs means:
// with every shard in place an RS(4,2) read fetches the k data shards and
// joins them. A reconstruction is only legitimate behind a hedge that
// fired because a fetch was slow (a scheduling hiccup on the test box),
// so the counters are bounded by that one; without spares there is no
// timer and every count is exactly zero.
func TestErasureHealthyReadsDoNotReconstruct(t *testing.T) {
	noSpare := rs42
	noSpare.ReadSpare = -1
	for _, tc := range []struct {
		name string
		opts []deployOpt
		hard bool // no timed hedge exists: zero is exact
	}{
		{"detector-on", []deployOpt{withRedundancy(rs42)}, false},
		{"no-spares", []deployOpt{withRedundancy(noSpare)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestFS(t, 6, 0, tc.opts...)
			data := randomBytes(51, 5*4096+777)
			if err := d.fs.WriteFile("/healthy", data); err != nil {
				t.Fatal(err)
			}
			f, err := d.fs.Open("/healthy")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			whole := make([]byte, len(data))
			for i := 0; i < 64; i++ {
				if n, err := f.ReadAt(whole, 0); n != len(data) || err != nil || !bytes.Equal(whole, data) {
					t.Fatalf("whole read %d: %d bytes, err %v", i, n, err)
				}
				off, l := (i*331)%len(data), 1+(i*577)%6000
				l = min(l, len(data)-off)
				win := whole[:l]
				if n, err := f.ReadAt(win, int64(off)); n != l || err != nil || !bytes.Equal(win, data[off:off+l]) {
					t.Fatalf("window read off=%d len=%d: %d bytes, err %v", off, l, n, err)
				}
			}
			c, slow := d.fs.Counters(), hedgedBy(d.fs, "slow")
			if tc.hard && slow != 0 {
				t.Fatalf("%d slow hedges without spares", slow)
			}
			if c.ECReconstructs > slow {
				t.Fatalf("healthy reads reconstructed %d times behind %d slow hedges; they must join the data shards", c.ECReconstructs, slow)
			}
			if c.ECHedgedReads != slow {
				t.Fatalf("healthy reads hedged %d times, %d of them for slowness: a healthy shard was taken for missing, failed or stale", c.ECHedgedReads, slow)
			}
			if st := d.fs.RepairStats(); st.Enqueued != 0 || st.Repaired != 0 {
				t.Fatalf("healthy reads produced repair work: %+v", st)
			}
		})
	}
}

// TestErasureDataShardMissHedgesAtOnce deletes one data shard of one
// stripe before each read of it: the read reconstructs exactly once and
// enqueues the stripe, and it is the miss — not the hedge timer — that
// fetches the parity shard: the no-spares deployment has no timer at all.
func TestErasureDataShardMissHedgesAtOnce(t *testing.T) {
	for _, spare := range []int{0, -1} {
		t.Run(fmt.Sprintf("ReadSpare=%d", spare), func(t *testing.T) {
			red := rs42
			red.ReadSpare = spare
			d := newTestFS(t, 6, 0, withRedundancy(red))
			data := randomBytes(52, 3*4096)
			if err := d.fs.WriteFile("/miss1", data); err != nil {
				t.Fatal(err)
			}
			sk, nodes := stripeTargets(t, d, "/miss1", 1)
			store, key := storesByID(d)[nodes[2]], shardKey(dataKey(sk), 2)
			f, err := d.fs.Open("/miss1")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 4096)
			const reads = 16
			for i := 0; i < reads; i++ {
				// The previous read's repair has put the shard back.
				if !d.fs.WaitRepairIdle(10 * time.Second) {
					t.Fatalf("repair queue never idled: %+v", d.fs.RepairStats())
				}
				store.Del(key)
				before, enq, slow := d.fs.Counters(), d.fs.RepairStats().Enqueued, hedgedBy(d.fs, "slow")
				if _, err := f.ReadAt(buf, 4096); err != nil || !bytes.Equal(buf, data[4096:8192]) {
					t.Fatalf("read %d around a lost data shard: err %v", i, err)
				}
				after := d.fs.Counters()
				if n := after.ECReconstructs - before.ECReconstructs; n != 1 {
					t.Fatalf("read %d reconstructed %d times, want exactly 1", i, n)
				}
				if n := after.ECHedgedReads - before.ECHedgedReads; n != 1 {
					t.Fatalf("read %d counted %d hedged gathers, want 1", i, n)
				}
				// A read whose timer beat the miss reply (a loaded test box)
				// may finish on the spare without ever hearing the miss.
				if n := d.fs.RepairStats().Enqueued - enq; n != 1 && hedgedBy(d.fs, "slow") == slow {
					t.Fatalf("read %d enqueued %d repairs, want 1", i, n)
				}
			}
			if miss := hedgedBy(d.fs, "miss"); spare < 0 && miss != reads {
				t.Fatalf("%d of %d reads hedged on the miss", miss, reads)
			}
			// The degraded reads' traces say why they decoded: a hedge leg
			// under the stripe's span, before the reconstruct leg.
			legs := 0
			for _, td := range d.fs.Traces().Degraded(reads) {
				for _, sp := range td.Root.Children {
					if sp.Name != "stripe" || sp.Stripe != 1 {
						continue
					}
					for _, leg := range sp.Children {
						if leg.Name == "hedge" && (leg.Outcome == "miss" || leg.Outcome == "slow") {
							legs++
						}
					}
				}
			}
			if legs == 0 || (spare < 0 && legs != reads) {
				t.Fatalf("%d hedge legs under stripe 1 in the traces of %d degraded reads", legs, reads)
			}
		})
	}
}

// TestErasureParityShardMissIsNotARead deletes a parity shard: a healthy
// read fetches the k data shards only, so it neither reconstructs nor
// errors — and, no longer probing parity, does not notice. Scrub and the
// repair queue remain the detectors of lost parity.
func TestErasureParityShardMissIsNotARead(t *testing.T) {
	d := newTestFS(t, 6, 0, withRedundancy(rs42))
	data := randomBytes(53, 4096)
	if err := d.fs.WriteFile("/parity", data); err != nil {
		t.Fatal(err)
	}
	sk, nodes := stripeTargets(t, d, "/parity", 0)
	if n := storesByID(d)[nodes[5]].Del(shardKey(dataKey(sk), 5)); n != 1 {
		t.Fatalf("deleted %d shards, want 1", n)
	}
	for i := 0; i < 32; i++ {
		if got, err := d.fs.ReadFile("/parity"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d with a parity shard lost: err %v", i, err)
		}
	}
	if c, slow := d.fs.Counters(), hedgedBy(d.fs, "slow"); c.ECReconstructs > slow || c.ECHedgedReads != slow {
		t.Fatalf("reads over a lost parity shard: %d reconstructs, %d hedged, %d slow hedges", c.ECReconstructs, c.ECHedgedReads, slow)
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 {
		t.Fatalf("scrub restored %d shards, want the one lost parity shard: %+v", rep.Restored, rep)
	}
}

// TestErasureMixedGenerationFirstWave puts two writes' shards into the
// first wave. A newer write that landed on exactly k slots (0, 1, 2, 4)
// must win over the old shards left in slots 3 and 5; a newer write that
// tore after two slots must lose to the committed one. Either way the
// bytes are one write's, the read hedges as stale and reconstructs once.
func TestErasureMixedGenerationFirstWave(t *testing.T) {
	coder, err := erasure.NewCoder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		slots   []int
		wantNew bool
	}{
		{"newer-write-reached-k", []int{0, 1, 2, 4}, true},
		{"newer-write-torn", []int{0, 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestFS(t, 6, 0, withRedundancy(rs42), withRepair(RepairPolicy{Disable: true}))
			old, newer := randomBytes(54, 4096), randomBytes(55, 4096)
			if err := d.fs.WriteFile("/gens", old); err != nil {
				t.Fatal(err)
			}
			sk, nodes := stripeTargets(t, d, "/gens", 0)
			stores := storesByID(d)
			raw, ok, err := stores[nodes[0]].Get(shardKey(dataKey(sk), 0))
			if err != nil || !ok {
				t.Fatalf("shard 0 missing after write: ok=%v err=%v", ok, err)
			}
			gen, id, _, err := erasure.ParseShard(raw)
			if err != nil {
				t.Fatal(err)
			}
			shards := coder.EncodeShards(gen+1, id+1, newer)
			for _, i := range tc.slots {
				if err := stores[nodes[i]].Set(shardKey(dataKey(sk), i), shards[i]); err != nil {
					t.Fatal(err)
				}
			}
			want := old
			if tc.wantNew {
				want = newer
			}
			for i := 0; i < 8; i++ {
				before, slow := d.fs.Counters(), hedgedBy(d.fs, "slow")
				got, err := d.fs.ReadFile("/gens")
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %d over two generations: err %v, bytes of the wrong write or of both", i, err)
				}
				after := d.fs.Counters()
				if n := after.ECReconstructs - before.ECReconstructs; n != 1 {
					t.Fatalf("read %d reconstructed %d times, want 1", i, n)
				}
				// A read whose timer beat the stale shard's reply (a loaded
				// test box) may reach k of the newer write without seeing it.
				if after.ECGenConflicts == before.ECGenConflicts && hedgedBy(d.fs, "slow") == slow {
					t.Fatalf("read %d counted no generation conflict", i)
				}
			}
			if stale, slow := hedgedBy(d.fs, "stale"), hedgedBy(d.fs, "slow"); stale+slow != 8 || stale == 0 {
				t.Fatalf("8 mixed-generation reads hedged %d times as stale, %d as slow", stale, slow)
			}
		})
	}
}

// TestErasureGrayHolderReadsOwnTheirBuffers slows one data-shard holder
// to 40 ms per reply while it stays Up. No read may wait the slow node
// out — the hedge fetches a parity shard instead — and the fetch each
// read abandons must never touch memory another owner holds: not the
// caller's p after ReadAt returned, and not a pooled buffer a concurrent
// reader is using. Run under -race.
func TestErasureGrayHolderReadsOwnTheirBuffers(t *testing.T) {
	const delay = 40 * time.Millisecond
	d, proxies := newChaosFS(t, 6, 6, faultwrap.Plan{}, withRedundancy(rs42))
	data, other := randomBytes(56, 4096), randomBytes(57, 4096)
	if err := d.fs.WriteFile("/other", other); err != nil {
		t.Fatal(err)
	}
	// A stripe's shards all sit in one class: find a file on the proxied one.
	path, gray := "", -1
	for i := 0; gray < 0; i++ {
		path = fmt.Sprintf("/gray%d", i)
		if err := d.fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		_, nodes := stripeTargets(t, d, path, 0)
		for v, n := range d.victims.Nodes {
			if n.ID == nodes[1] {
				gray = v // holder of data shard 1
			}
		}
	}
	proxies[gray].SetPlan(faultwrap.Plan{Reply: faultwrap.DirPlan{DelayProb: 1, Delay: delay}})

	// A second reader shares the shard pool for as long as the first runs.
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		f, err := d.fs.Open("/other")
		if err != nil {
			done <- err
			return
		}
		defer f.Close()
		buf := make([]byte, len(other))
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, other) {
				done <- fmt.Errorf("concurrent reader: err %v, or bytes of another read", err)
				return
			}
		}
	}()

	f, err := d.fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const reads = 200
	bufs := make([][]byte, reads)
	lat := make([]time.Duration, reads)
	for i := range bufs {
		p := make([]byte, len(data))
		start := time.Now()
		_, err := f.ReadAt(p, 0)
		lat[i] = time.Since(start)
		if err != nil || !bytes.Equal(p, data) {
			t.Fatalf("read %d beside a gray shard holder: err %v", i, err)
		}
		// p is the caller's again: whatever the abandoned fetch does when
		// its reply finally arrives, it must not land here.
		for j := range p {
			p[j] = byte(i)
		}
		bufs[i] = p
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// A read that waited the slow node out takes the delay or longer. The
	// two slowest reads are left to the test box's scheduler.
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50, p99 := lat[reads/2], lat[reads*99/100-1]; p50 >= 15*time.Millisecond || p99 >= delay {
		t.Fatalf("reads beside a node %v slow: p50 %v (want < 15ms), p99 %v (want under the delay)", delay, p50, p99)
	}
	time.Sleep(delay + 20*time.Millisecond)
	for i, p := range bufs {
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, len(p))) {
			t.Fatalf("buffer of read %d was written after ReadAt returned", i)
		}
	}
	if proxies[gray].Stats().Delays == 0 {
		t.Fatal("the gray plan delayed nothing")
	}
	if st := d.fs.Health()[d.victims.Nodes[gray].ID]; st.State != health.Up {
		t.Fatalf("gray node was condemned (%s): the failure was supposed to be gray", st.State)
	}
	if slow := hedgedBy(d.fs, "slow"); slow < reads/2 {
		t.Fatalf("only %d of %d reads hedged on the slow node", slow, reads)
	}
}

// storedTags parses the (generation, write ID) of every slot of a stripe
// straight from the stores; a slot that is empty or unparseable fails.
func storedTags(t *testing.T, stores map[string]*kvstore.Store, sk string, nodes []string) [][2]uint64 {
	t.Helper()
	tags := make([][2]uint64, len(nodes))
	for i, node := range nodes {
		raw, ok, err := stores[node].Get(shardKey(dataKey(sk), i))
		if err != nil || !ok {
			t.Fatalf("slot %d empty: ok=%v err=%v", i, ok, err)
		}
		gen, id, _, err := erasure.ParseShard(raw)
		if err != nil {
			t.Fatalf("slot %d unparseable: %v", i, err)
		}
		tags[i] = [2]uint64{gen, id}
	}
	return tags
}

// TestErasureReadAndRepairAgree damages one stripe four ways and demands
// one verdict from the reader and the repairer, who inspect it through the
// same gather: the write ReadFile returns is the write RepairFile then
// makes every one of the k+m slots carry, after which a read finds nothing
// to hedge on.
func TestErasureReadAndRepairAgree(t *testing.T) {
	coder, err := erasure.NewCoder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(set func(slot int, shard []byte), gen, id uint64, shardLen int)
	}{
		{"missing", func(set func(int, []byte), _, _ uint64, _ int) { set(1, nil) }},
		{"stale", func(set func(int, []byte), gen, id uint64, n int) {
			set(1, erasure.WrapShard(gen-1, id+7, randomBytes(62, n)))
		}},
		{"unparseable", func(set func(int, []byte), _, _ uint64, _ int) { set(1, []byte("not a shard header, nor a shard")) }},
		{"torn-newer-write", func(set func(int, []byte), gen, id uint64, _ int) {
			// Two shards of a later write landed before its writer died:
			// fewer than k, beside the complete older write.
			torn := coder.EncodeShards(gen+1, id+1, randomBytes(63, 4096))
			set(0, torn[0])
			set(1, torn[1])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestFS(t, 6, 0, withRedundancy(rs42), withRepair(RepairPolicy{Disable: true}))
			data := randomBytes(64, 4096)
			if err := d.fs.WriteFile("/agree", data); err != nil {
				t.Fatal(err)
			}
			sk, nodes := stripeTargets(t, d, "/agree", 0)
			stores := storesByID(d)
			want := storedTags(t, stores, sk, nodes)
			raw, _, _ := stores[nodes[1]].Get(shardKey(dataKey(sk), 1))
			tc.damage(func(slot int, shard []byte) {
				key := shardKey(dataKey(sk), slot)
				if shard == nil {
					stores[nodes[slot]].Del(key)
				} else if err := stores[nodes[slot]].Set(key, shard); err != nil {
					t.Fatal(err)
				}
			}, want[0][0], want[0][1], len(raw)-erasure.HeaderSize)

			got, err := d.fs.ReadFile("/agree")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read of the damaged stripe: err %v, or not the committed write's bytes", err)
			}
			rep, err := d.fs.RepairFile("/agree")
			if err != nil || len(rep.Unrepairable) != 0 || len(rep.Deferred) != 0 || rep.Restored == 0 {
				t.Fatalf("repair: %+v, err %v", rep, err)
			}
			if tags := storedTags(t, stores, sk, nodes); fmt.Sprint(tags) != fmt.Sprint(want) {
				t.Fatalf("slots carry %v after repair, want the write the read returned on every slot: %v", tags, want)
			}
			hedged, slow := d.fs.Counters().ECHedgedReads, hedgedBy(d.fs, "slow")
			if got, err = d.fs.ReadFile("/agree"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after repair: %v", err)
			}
			if n := d.fs.Counters().ECHedgedReads - hedged - (hedgedBy(d.fs, "slow") - slow); n != 0 {
				t.Fatalf("read after repair hedged %d times on a missing, failed or stale shard", n)
			}
		})
	}
}

// TestErasureRMWSkipsDownNodeInGather kills one victim and marks it Down,
// then read-modify-writes every stripe of an RS(4,2) file. The write path
// skips the dead node; the gather that feeds the read-modify-write must
// skip it too — the five Up slots settle the stripe — instead of spending
// the node's whole retry budget per stripe to learn nothing.
func TestErasureRMWSkipsDownNodeInGather(t *testing.T) {
	d, proxies := newChaosFS(t, 6, 6, faultwrap.Plan{}, withRedundancy(rs42),
		withRetry(soakRetry), withHealth(HealthPolicy{ProbeInterval: -1}))
	const stripes, stripeSize = 16, 4096
	data := randomBytes(65, stripes*stripeSize)
	if err := d.fs.WriteFile("/rmw", data); err != nil {
		t.Fatal(err)
	}
	const dead = 2
	deadID := d.victims.Nodes[dead].ID
	var placed int64 // stripes with a shard on the dead node
	for i := int64(0); i < stripes; i++ {
		if _, nodes := stripeTargets(t, d, "/rmw", i); containsString(nodes, deadID) {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("no stripe placed a shard on the victim to kill")
	}
	proxies[dead].Kill()
	forceDown(t, d.fs, deadID)

	f, err := d.fs.OpenFile("/rmw", O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	dials := func() int64 { st := proxies[dead].Stats(); return st.Conns + st.Refused }
	before, degraded := dials(), d.fs.Counters().DegradedWrites
	for i := 0; i < stripes; i++ {
		patch, off := randomBytes(int64(70+i), 100), i*stripeSize+1000
		if _, err := f.WriteAt(patch, int64(off)); err != nil {
			t.Fatalf("sub-stripe write %d beside a Down node: %v", i, err)
		}
		copy(data[off:], patch)
	}
	if n := dials() - before; n != 0 {
		t.Fatalf("%d sub-stripe writes dialled the killed, Down node %d times; its slot was not needed to settle any stripe", stripes, n)
	}
	if n := d.fs.Counters().DegradedWrites - degraded; n != placed {
		t.Fatalf("%d degraded writes, want %d (the stripes with a shard on the dead node)", n, placed)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := d.fs.ReadFile("/rmw"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the writes: err %v, or bytes differ", err)
	}
}

// TestErasureRMWAsksDistrustedNodeWhenUnsettled is the guard on that skip:
// the distrusted node is reachable and holds a shard of the newest write,
// which the Up slots alone would miss or misjudge. The gather must then
// ask it after all, and the read-modify-write must merge into the newest
// write's bytes — never over zeros or an older write (a lost update).
func TestErasureRMWAsksDistrustedNodeWhenUnsettled(t *testing.T) {
	for _, tc := range []struct {
		name       string
		k, m       int
		newer      []int // slots the newer write landed on: exactly k
		distrusted int   // one of them
	}{
		// Up slots show 3 new + 2 old: no write at k.
		{"RS42-no-write-at-k", 4, 2, []int{0, 1, 2, 5}, 5},
		// m >= k: the old write still reaches k among the Up slots, but
		// one of them already shows the newer generation.
		{"RS22-older-write-at-k", 2, 2, []int{0, 3}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coder, err := erasure.NewCoder(tc.k, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			d := newTestFS(t, tc.k+tc.m, 0,
				withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: tc.k, ParityShards: tc.m}),
				withHealth(HealthPolicy{ProbeInterval: -1}), withRepair(RepairPolicy{Disable: true}))
			old, newer := randomBytes(66, 4096), randomBytes(67, 4096)
			if err := d.fs.WriteFile("/guard", old); err != nil {
				t.Fatal(err)
			}
			sk, nodes := stripeTargets(t, d, "/guard", 0)
			stores := storesByID(d)
			tag := storedTags(t, stores, sk, nodes)[0]
			shards := coder.EncodeShards(tag[0]+1, tag[1]+1, newer)
			for _, i := range tc.newer {
				if err := stores[nodes[i]].Set(shardKey(dataKey(sk), i), shards[i]); err != nil {
					t.Fatal(err)
				}
			}
			forceDown(t, d.fs, nodes[tc.distrusted])

			f, err := d.fs.OpenFile("/guard", O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			patch := []byte("merged into the newest write")
			if _, err := f.WriteAt(patch, 500); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			copy(newer[500:], patch)
			if got, err := d.fs.ReadFile("/guard"); err != nil || !bytes.Equal(got, newer) {
				t.Fatalf("read after the read-modify-write: err %v, or the patch was not merged into the newest write", err)
			}
		})
	}
}

// TestScrubHealthyErasureReadsHeadersOnly pins what a Scrub costs the
// victims: a healthy RS(4,2) stripe is judged from its six 18-byte shard
// headers, and only a stripe with something to rewrite has its shards
// fetched whole.
func TestScrubHealthyErasureReadsHeadersOnly(t *testing.T) {
	d := newTestFS(t, 6, 6, withRedundancy(rs42), withHealth(HealthPolicy{ProbeInterval: -1}),
		// Own weight 1: every stripe is victim-bound, so the victim class's
		// commands are exactly the data traffic.
		func(c *Config) { c.Classes[0].Weight = 1 })
	const stripes = 64
	data := randomBytes(68, stripes*4096)
	if err := d.fs.WriteFile("/scrub", data); err != nil {
		t.Fatal(err)
	}
	scrub := func(label string, wantRestored int, wantGets int64) {
		t.Helper()
		gets, ranges := storeOpCount(d.fs, "GET", "victim"), storeOpCount(d.fs, "GETRANGE", "victim")
		rep, err := d.fs.Scrub()
		if err != nil || len(rep.Unrepairable) != 0 || len(rep.Deferred) != 0 || rep.Restored != wantRestored {
			t.Fatalf("%s: scrub = %+v, err %v; want %d restored", label, rep, err, wantRestored)
		}
		gets, ranges = storeOpCount(d.fs, "GET", "victim")-gets, storeOpCount(d.fs, "GETRANGE", "victim")-ranges
		if gets != wantGets || ranges != 6*stripes {
			t.Fatalf("%s: scrub issued %d GET and %d GETRANGE to the data nodes, want %d and %d (one header per slot)",
				label, gets, ranges, wantGets, 6*stripes)
		}
	}
	scrub("healthy", 0, 0)

	// One shard lost on stripe 3, one replaced by an older write's on stripe 40.
	stores := storesByID(d)
	sk, nodes := stripeTargets(t, d, "/scrub", 3)
	if n := stores[nodes[2]].Del(shardKey(dataKey(sk), 2)); n != 1 {
		t.Fatalf("deleted %d shards, want 1", n)
	}
	sk, nodes = stripeTargets(t, d, "/scrub", 40)
	tag := storedTags(t, stores, sk, nodes)[4]
	if err := stores[nodes[4]].Set(shardKey(dataKey(sk), 4), erasure.WrapShard(tag[0]-1, tag[1]+1, randomBytes(69, 1024))); err != nil {
		t.Fatal(err)
	}
	scrub("two damaged stripes", 2, 2*6)
	scrub("after repair", 0, 0)
	if got, err := d.fs.ReadFile("/scrub"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after scrub: err %v, or bytes differ", err)
	}
}
