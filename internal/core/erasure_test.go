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
	"testing"
	"time"

	"memfss/internal/erasure"
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
	if !stores[victim].Exists(key) {
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
	d.fs.setDraining(node, true)

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

	d.fs.setDraining(node, false)
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
// command verb across node classes.
func storeOpCount(fs *FileSystem, op string) int64 {
	var n int64
	if f := findFamily(fs.Metrics(), "memfss_kvstore_op_seconds"); f != nil {
		for _, s := range f.Series {
			if s.Labels.Get("op") == op {
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
	gets, ranges := storeOpCount(d.fs, "GET"), storeOpCount(d.fs, "GETRANGE")
	recBefore := d.fs.Counters().ECReconstructs
	v2 := randomBytes(22, stripeSize)
	if _, err := f.WriteAt(v2, 0); err != nil {
		t.Fatal(err)
	}
	gets, ranges = storeOpCount(d.fs, "GET")-gets, storeOpCount(d.fs, "GETRANGE")-ranges
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

	// A partial overwrite still read-modify-writes: whole shards fetched,
	// no header probe. (>= because a straggler GET the ReadFile above
	// abandoned may report inside this window.)
	f, err = d.fs.OpenFile("/whole", O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	gets, ranges = storeOpCount(d.fs, "GET"), storeOpCount(d.fs, "GETRANGE")
	if _, err := f.WriteAt([]byte("patch"), 100); err != nil {
		t.Fatal(err)
	}
	gets, ranges = storeOpCount(d.fs, "GET")-gets, storeOpCount(d.fs, "GETRANGE")-ranges
	if gets < 6 || ranges != 0 {
		t.Fatalf("partial overwrite issued %d GET and %d GETRANGE, want >= 6 and 0", gets, ranges)
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
}
