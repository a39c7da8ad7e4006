package core

// Fault-injection soak tests: the dd-style write/read/verify workloads of
// the paper's reliability argument, run against victim stores that drop,
// truncate, delay, and permanently abandon connections through the
// faultwrap chaos proxy. Plans are seeded, so the fault mix replays run
// after run; the assertions are the hard ones — zero data loss and
// bounded retry volume — not exact fault counts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"memfss/internal/container"
	"memfss/internal/faultwrap"
	"memfss/internal/fsmeta"
	"memfss/internal/hrw"
	"memfss/internal/kvstore"
	"memfss/internal/stripe"
)

// newChaosFS brings up ownN clean own stores (the metadata path stays
// healthy, as in the paper's deployment where own nodes are reliable) and
// victimN victim stores reached through one faultwrap proxy each.
func newChaosFS(t *testing.T, ownN, victimN int, plan faultwrap.Plan, opts ...deployOpt) (*testDeploy, []*faultwrap.Proxy) {
	t.Helper()
	const password = "test-secret"
	own, err := StartLocalStores(ownN, "own", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(own.Close)
	victims, err := StartLocalStores(victimN, "victim", password, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victims.Close)
	targets := make([]string, victimN)
	for i, n := range victims.Nodes {
		targets[i] = n.Addr
	}
	proxies, err := faultwrap.WrapAll(targets, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, p := range proxies {
			p.Close()
		}
	})
	proxied := make([]NodeSpec, victimN)
	for i, n := range victims.Nodes {
		proxied[i] = NodeSpec{ID: n.ID, Addr: proxies[i].Addr()}
	}
	delta, err := hrw.DeltaForOwnFraction(0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Classes: []ClassSpec{
			{Name: "own", Weight: delta, Nodes: own.Nodes},
			{Name: "victim", Nodes: proxied, Victim: true,
				Limits: container.Limits{MemoryBytes: 1 << 30}},
		},
		StripeSize:  4 << 10,
		Password:    password,
		DialTimeout: 5 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return &testDeploy{fs: fs, own: own, victims: victims}, proxies
}

// soakRetry gives flaky operations room to recover without letting a dead
// node stall the workload: 8 attempts, millisecond backoff.
var soakRetry = RetryPolicy{
	MaxAttempts: 8,
	BaseDelay:   time.Millisecond,
	MaxDelay:    8 * time.Millisecond,
	OpTimeout:   10 * time.Second,
}

// TestFaultSoak writes, re-reads, and verifies a file set while the chaos
// proxies drop and delay victim traffic, kills one victim permanently
// halfway through, and then demands zero data loss and bounded retries.
func TestFaultSoak(t *testing.T) {
	cases := []struct {
		name     string
		depth    int
		replicas int
	}{
		{"per-command-R2", 1, 2}, // depth 1: bursts of one command
		{"pipelined-R2", 8, 2},
		{"pipelined-R3", 8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faultwrap.Plan{
				Seed:    42,
				Request: faultwrap.DirPlan{Cut: 0.02},
				Reply:   faultwrap.DirPlan{Drop: 0.03, Cut: 0.02, DelayProb: 0.05, Delay: time.Millisecond},
			}
			ownN := 2
			if tc.replicas > ownN {
				ownN = tc.replicas
			}
			d, proxies := newChaosFS(t, ownN, 4, plan,
				withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: tc.replicas}),
				withPipelineDepth(tc.depth),
				withRetry(soakRetry))

			const files = 24
			payload := func(i int) []byte { return randomBytes(int64(1000+i), 20_000+i*512) }
			for i := 0; i < files; i++ {
				if i == files/2 {
					proxies[1].Kill() // permanent node death mid-workload
				}
				path := fmt.Sprintf("/dd%d", i)
				if err := d.fs.WriteFile(path, payload(i)); err != nil {
					t.Fatalf("write %s under faults: %v", path, err)
				}
				got, err := d.fs.ReadFile(path)
				if err != nil || !bytes.Equal(got, payload(i)) {
					t.Fatalf("immediate verify %s: %v", path, err)
				}
			}
			// Full re-read after the dust settles: nothing written may be lost.
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/dd%d", i)
				got, err := d.fs.ReadFile(path)
				if err != nil || !bytes.Equal(got, payload(i)) {
					t.Fatalf("final verify %s: %v", path, err)
				}
			}
			rep, err := d.fs.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Damaged) != 0 {
				t.Fatalf("fsck found damaged files after soak: %v", rep.Damaged)
			}

			c := d.fs.Counters()
			if c.StoreOps == 0 {
				t.Fatal("no store operations counted")
			}
			if c.StoreAttempts > int64(soakRetry.MaxAttempts)*c.StoreOps {
				t.Fatalf("retry storm: %d attempts for %d ops exceeds MaxAttempts=%d bound",
					c.StoreAttempts, c.StoreOps, soakRetry.MaxAttempts)
			}
			if c.StoreAttempts <= c.StoreOps {
				t.Errorf("no retries recorded (%d attempts / %d ops) despite injected faults",
					c.StoreAttempts, c.StoreOps)
			}
			if c.DegradedWrites == 0 {
				t.Error("no degraded writes recorded despite a permanently dead replica")
			}
			if s := faultwrap.TotalStats(proxies); s.PreDrops+s.MidDrops+s.Cuts == 0 {
				t.Errorf("plan injected no faults: %v", s)
			}
			t.Logf("soak %s: %+v, faults %v", tc.name, c, faultwrap.TotalStats(proxies))
		})
	}
}

// TestDegradedWriteCounter pins the degraded-quorum semantics: killing one
// store of an R=2 pair lets writes succeed (counter moves), and the data
// stays fully readable through the surviving replica.
func TestDegradedWriteCounter(t *testing.T) {
	d := newTestFS(t, 2, 2,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry))
	if err := d.fs.WriteFile("/healthy", randomBytes(301, 40_000)); err != nil {
		t.Fatal(err)
	}
	if c := d.fs.Counters(); c.DegradedWrites != 0 {
		t.Fatalf("healthy write counted %d degraded writes", c.DegradedWrites)
	}
	d.victims.Server(0).Close()
	data := randomBytes(302, 60_000)
	if err := d.fs.WriteFile("/degraded", data); err != nil {
		t.Fatalf("write with one dead replica of R=2 must degrade, not fail: %v", err)
	}
	if c := d.fs.Counters(); c.DegradedWrites == 0 {
		t.Fatal("degraded write counter did not move")
	}
	got, err := d.fs.ReadFile("/degraded")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read through surviving replica: %v", err)
	}
	if err := d.fs.VerifyFile("/degraded"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreErrorsFailWrites is the other half of the quorum rule: a
// store-level error (here OOM from a memory cap) is not a transport
// failure and must fail the write rather than degrade it.
func TestStoreErrorsFailWrites(t *testing.T) {
	d := newTestFS(t, 2, 2,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry))
	for i := range d.victims.Nodes {
		d.victims.Server(i).Store().SetMaxMemory(1)
	}
	if err := d.fs.WriteFile("/oom", randomBytes(303, 40_000)); err == nil {
		t.Fatal("write against OOM stores must fail")
	}
	if c := d.fs.Counters(); c.DegradedWrites != 0 {
		t.Fatalf("store errors degraded instead of failing (%d degraded writes)", c.DegradedWrites)
	}
}

// TestWriteSettlesSpansAfterFailedSpan: one WriteAt whose early span
// hard-fails (a full store answers OOM) must still settle the spans after
// it — a later span that lost a replica to a dead node but met the quorum
// is a degraded write with repair owed, and every span gets an outcome.
// The multi-span path used to return at the first failed span, so those
// later spans vanished from DegradedWrites, the repair queue and
// memfss_fs_span_outcomes_total.
func TestWriteSettlesSpansAfterFailedSpan(t *testing.T) {
	d, proxies := newChaosFS(t, 2, 3, faultwrap.Plan{},
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry),
		// No detector skips: every target is attempted, so the counts
		// below follow from placement alone.
		withHealth(HealthPolicy{ProbeInterval: -1, SuspectAfter: 1000}))
	f, err := d.fs.Create("/settle")
	if err != nil {
		t.Fatal(err)
	}
	const nStripes = 16
	stripeN := int(d.fs.layout.Size())
	// classify counts, for victim full answering OOM and victim dead
	// killed: the first span that hard-fails (full among its targets), the
	// failed spans that still landed a copy (torn: dead not among their
	// targets), and the spans that degrade (dead among their targets, full
	// not) overall and after that first failure.
	classify := func(full, dead string) (firstFail, torn, degraded, degradedAfter int) {
		firstFail = -1
		for i := 0; i < nStripes; i++ {
			targets := f.targets(stripe.Key(f.rec.ID, int64(i)))
			switch {
			case slices.Contains(targets, full):
				if firstFail < 0 {
					firstFail = i
				}
				if !slices.Contains(targets, dead) {
					torn++
				}
			case slices.Contains(targets, dead):
				degraded++
				if firstFail >= 0 {
					degradedAfter++
				}
			}
		}
		return
	}
	full, dead, firstFail, torn, degraded := -1, -1, 0, 0, 0
	for c := range d.victims.Nodes {
		for k := range d.victims.Nodes {
			if c == k || full >= 0 {
				continue
			}
			if ff, tn, deg, after := classify(d.victims.Nodes[c].ID, d.victims.Nodes[k].ID); ff >= 0 && after > 0 {
				full, dead, firstFail, torn, degraded = c, k, ff, tn, deg
			}
		}
	}
	if full < 0 {
		t.Fatal("no victim pair puts a degradable span after a failing one")
	}
	d.victims.Server(full).Store().SetMaxMemory(1)
	proxies[dead].Kill()

	data := randomBytes(304, nStripes*stripeN)
	n, err := f.WriteAt(data, 0)
	if !errors.Is(err, kvstore.ErrNoSpace) {
		t.Fatalf("write with a full replica target: %v, want ErrNoSpace", err)
	}
	if want := firstFail * stripeN; n != want {
		t.Fatalf("short write reported %d bytes, want the %d before the first failed span", n, want)
	}
	c := d.fs.Counters()
	if c.DegradedWrites != int64(degraded) {
		t.Errorf("DegradedWrites = %d, want %d (every span that lost only the dead replica)", c.DegradedWrites, degraded)
	}
	// Degraded spans, and failed spans whose copies now disagree, go to
	// the repair queue.
	if st := d.fs.RepairStats(); st.Enqueued != int64(degraded+torn) {
		t.Errorf("repair Enqueued = %d, want %d degraded + %d torn", st.Enqueued, degraded, torn)
	}
	var outcomes int64
	for _, v := range spanOutcomes(d.fs.obs.reg.Snapshot(), "write") {
		outcomes += v
	}
	if c.StripeWrites != nStripes || outcomes != c.StripeWrites {
		t.Errorf("%d write outcomes for %d stripe writes, want %d of each", outcomes, c.StripeWrites, nStripes)
	}
	// The short-write contract is unchanged: the leading prefix is readable.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := d.fs.ReadFile("/settle")
	if err != nil || !bytes.Equal(got, data[:n]) {
		t.Fatalf("read of the short write's prefix: %v", err)
	}
}

// TestEvacuateUnderMidPipelineFaults drives an evacuation whose victims
// keep cutting pipelined replies in half: the mover must send the keys of
// a cut burst on to their next candidates in the following wave, and the
// drain must still complete with every file intact.
func TestEvacuateUnderMidPipelineFaults(t *testing.T) {
	plan := faultwrap.Plan{Seed: 7, Reply: faultwrap.DirPlan{Cut: 0.25}}
	d, proxies := newChaosFS(t, 2, 2, plan,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withPipelineDepth(8),
		withRetry(soakRetry))
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/ev%d", i)
		files[path] = randomBytes(int64(400+i), 30_000)
		if err := d.fs.WriteFile(path, files[path]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	var err error
	for try := 0; try < 8; try++ {
		if _, err = d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); err == nil {
			break
		}
		t.Logf("evacuation attempt %d: %v", try+1, err)
	}
	if err != nil {
		t.Fatalf("evacuation never completed under mid-pipeline faults: %v", err)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("evacuated store still holds %d bytes", st.BytesUsed)
	}
	if s := faultwrap.TotalStats(proxies); s.MidDrops == 0 {
		t.Errorf("plan injected no mid-pipeline faults: %v", s)
	}
	for path, want := range files {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after faulty evacuation: %v", path, err)
		}
	}
	rep, err := d.fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 0 {
		t.Fatalf("fsck found damage after evacuation: %v", rep.Damaged)
	}
}

// TestOverwriteSurvivesDeadNode pins the best-effort delete fan-out:
// overwriting (and removing) a file while one replica holder is dead must
// succeed — the old stripes on the dead node become counted orphans, not
// a user-visible failure. Before the fix, Create's truncate path failed
// the whole overwrite because the delete could not reach the node.
func TestOverwriteSurvivesDeadNode(t *testing.T) {
	d, proxies := newChaosFS(t, 2, 3, faultwrap.Plan{},
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry))
	const path = "/overwrite/victim.dat"
	if err := d.fs.MkdirAll("/overwrite"); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{0xA1}, 24<<10)
	if err := d.fs.WriteFile(path, v1); err != nil {
		t.Fatal(err)
	}
	proxies[0].Kill()

	v2 := bytes.Repeat([]byte{0xB2}, 24<<10)
	if err := d.fs.WriteFile(path, v2); err != nil {
		t.Fatalf("overwrite with a dead replica holder: %v", err)
	}
	got, err := d.fs.ReadFile(path)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after overwrite: %v", err)
	}
	if c := d.fs.Counters(); c.DeferredDeletes == 0 {
		t.Fatal("no deferred deletes counted — the dead node's delete should have been skipped")
	}
	if err := d.fs.Remove(path); err != nil {
		t.Fatalf("remove with a dead replica holder: %v", err)
	}
	if _, err := d.fs.ReadFile(path); err == nil {
		t.Fatal("file still readable after remove")
	}
}

// TestFailedCreateLeavesNoEntry: the file-ID index is written before the
// entry is linked, so a Create that cannot index its ID fails with nothing
// in the namespace — not with a path whose stripes the mover cannot
// resolve and an evacuation would flush as orphans.
func TestFailedCreateLeavesNoEntry(t *testing.T) {
	// A fresh deployment hands out "f-1". Its index shards to own-1; the
	// counter, the root listing and /b all live on own-0.
	if fsmeta.Shard("f-1", 2) != 1 || fsmeta.Shard("/", 2) != 0 || fsmeta.Shard("/b", 2) != 0 {
		t.Fatal("shard function changed: pick names that put only the ID index on own-1")
	}
	d := newTestFS(t, 2, 0, withRetry(fastRetry))
	d.own.Server(1).Close()
	if _, err := d.fs.Create("/b"); err == nil {
		t.Fatal("Create succeeded with the ID's index shard dead")
	}
	if _, err := d.fs.Stat("/b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("failed Create left an entry: Stat = %v", err)
	}
	if entries, err := d.fs.ReadDir("/"); err != nil || len(entries) != 0 {
		t.Fatalf("failed Create left a listing: %v %v", entries, err)
	}
}
