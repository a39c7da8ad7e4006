package core

// Regression tests for data-path correctness fixes. Each test failed
// against the code it names before the fix landed:
//
//   - TestErasureThrottleMetersBeforeTransfer: File.getFull throttled
//     *after* the GET, so bytes crossed the wire unmetered and a closed
//     throttle turned a successful read into a phantom unreachable-node
//     error.
//   - TestShortWriteKeepsPrefixReadable: File.WriteAt dropped the
//     successfully-written prefix from f.size/f.dirty on error, so
//     Sync/Close recorded the stale size and the prefix became unreadable.
//   - TestScavengeChurnRace: Evacuate kept a pointer into fs.classes
//     past the read unlock. The race was latent — today nothing mutates
//     class elements in place, so -race stayed quiet — but any future
//     in-place update would have made it explode; the test pins the
//     concurrency contract the copy-under-lock fix establishes.
//   - TestTruncateBoundaryUnreachableReplica: the boundary trim silently
//     skipped unreachable replicas, so shrink-then-grow resurfaced stale
//     bytes where POSIX requires zeros. The trim was then made to fail
//     closed; now the boundary is a versioned whole-stripe write, and the
//     copy it misses is a generation behind instead.
//   - TestRepairUnitOutrunsSizeCommit: fixStripe dropped units whose
//     stripe index sat beyond the committed file size, orphaning repairs
//     that raced their own writer's Close.
//   - TestReplicatedReadPastMissingCopyRepairs: a replicated read whose
//     first copy was missing served the next one through its own copy
//     walk, counted the span ok and queued nothing, so the copy stayed
//     missing where an erasure read queues the same damage.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"memfss/internal/container"
	"memfss/internal/erasure"
	"memfss/internal/kvstore"
	"memfss/internal/stripe"
)

func withRetry(r RetryPolicy) deployOpt {
	return func(c *Config) { c.Retry = r }
}

// withVictimNet gives every victim class a bandwidth budget, so the pool
// creates per-node throttles the tests can close.
func withVictimNet(bps int64) deployOpt {
	return func(c *Config) {
		for i := range c.Classes {
			if c.Classes[i].Victim {
				c.Classes[i].Limits.NetworkBytesPerSec = bps
			}
		}
	}
}

// fastRetry keeps failure-path tests quick: two attempts, millisecond
// backoff.
var fastRetry = RetryPolicy{
	MaxAttempts: 2,
	BaseDelay:   time.Millisecond,
	MaxDelay:    2 * time.Millisecond,
	OpTimeout:   2 * time.Second,
}

// S1: a closed victim throttle (the tenant reclaimed its network budget)
// must stop the transfer *before* any command reaches the store — on an
// erasure read, and on the source read of a replicated repair.
func TestErasureThrottleMetersBeforeTransfer(t *testing.T) {
	closeVictimThrottles := func(d *testDeploy) {
		for _, n := range d.victims.Nodes {
			d.fs.conns.throttle(n.ID).Close()
		}
	}
	t.Run("RS21-read", func(t *testing.T) {
		d := newTestFS(t, 3, 3,
			withRedundancy(Redundancy{Mode: RedundancyErasure, DataShards: 2, ParityShards: 1}),
			withVictimNet(1<<30),
			withRetry(fastRetry))
		data := randomBytes(101, 160<<10) // 40 stripes: some land on the victim class
		if err := d.fs.WriteFile("/e", data); err != nil {
			t.Fatal(err)
		}
		closeVictimThrottles(d)
		victimOps := func() (total int64) {
			for i := range d.victims.Nodes {
				total += d.victims.Server(i).Store().Stats().TotalOps
			}
			return total
		}
		before := victimOps()
		if _, err := d.fs.ReadFile("/e"); err == nil {
			t.Fatal("read with every victim throttle closed must fail")
		}
		if got := victimOps() - before; got != 0 {
			t.Fatalf("%d commands reached victim stores after the throttle closed; "+
				"the throttle must meter before the transfer", got)
		}
	})
	t.Run("R2-repair", func(t *testing.T) {
		d := newTestFS(t, 3, 3,
			withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
			withVictimNet(1<<30),
			withRetry(fastRetry))
		const stripes = 40
		if err := d.fs.WriteFile("/r", randomBytes(103, stripes*4096)); err != nil {
			t.Fatal(err)
		}
		// Drop the second copy of every victim-placed stripe: its repair
		// source is then a victim node.
		stores, damaged := storesByID(d), 0
		for i := int64(0); i < stripes; i++ {
			sk, nodes := stripeTargets(t, d, "/r", i)
			if strings.HasPrefix(nodes[0], "victim-") {
				damaged += stores[nodes[1]].Del(dataKey(sk))
			}
		}
		if damaged == 0 {
			t.Fatal("no stripe landed on the victim class")
		}
		closeVictimThrottles(d)
		gets := storeOpCount(d.fs, "GET", "victim")
		rep, err := d.fs.Scrub()
		if err != nil || len(rep.Restored) != 0 || len(rep.Deferred) != damaged {
			t.Fatalf("scrub with every victim throttle closed = %+v, err %v; want %d stripes deferred", rep, err, damaged)
		}
		if n := storeOpCount(d.fs, "GET", "victim") - gets; n != 0 {
			t.Fatalf("repair pulled %d stripes off victim stores after the throttle closed; "+
				"the source read must meter before the transfer", n)
		}
	})
}

// S2: a short write's surviving prefix must be recorded in the handle's
// size so Sync/Close persist it and the bytes stay readable.
func TestShortWriteKeepsPrefixReadable(t *testing.T) {
	d := newTestFS(t, 1, 2, withRetry(fastRetry))
	f, err := d.fs.Create("/short")
	if err != nil {
		t.Fatal(err)
	}
	const nStripes = 8
	stripeN := int(d.fs.layout.Size())
	primary := func(i int64) string { return f.placer.Place(stripe.Key(f.rec.ID, i)) }
	// Find the victim node whose first stripe comes latest but not first:
	// killing it fails that stripe while every earlier stripe still lands.
	firstIdx := map[string]int64{}
	for i := int64(nStripes - 1); i >= 0; i-- {
		firstIdx[primary(i)] = i
	}
	var kill string
	var j int64
	for node, idx := range firstIdx {
		if strings.HasPrefix(node, "victim-") && idx > j {
			kill, j = node, idx
		}
	}
	if kill == "" {
		t.Fatal("placement put no stripe after index 0 on a victim node")
	}
	for i, n := range d.victims.Nodes {
		if n.ID == kill {
			d.victims.Server(i).Close()
		}
	}

	data := randomBytes(102, nStripes*stripeN)
	n, err := f.WriteAt(data, 0)
	if err == nil {
		t.Fatal("write with a dead node must fail")
	}
	want := int(j) * stripeN
	if n != want {
		t.Fatalf("short write reported %d bytes, want %d (stripes before %s's first)", n, want, kill)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := d.fs.Stat("/short")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(n) {
		t.Fatalf("metadata size %d after short write of %d bytes: the written prefix is lost", st.Size, n)
	}
	got, err := d.fs.ReadFile("/short")
	if err != nil {
		t.Fatalf("read of short-write prefix: %v", err)
	}
	if !bytes.Equal(got, data[:n]) {
		t.Fatal("short-write prefix corrupted")
	}
}

// S3: Evacuate, AddVictimClass, the pressure monitor and writes all
// touch fs.classes; run them concurrently under -race.
func TestScavengeChurnRace(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry))
	mon := NewMonitor(d.fs, 5*time.Millisecond, func(string, ...any) {})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	// Pre-start the extra stores; only the class registration needs to race.
	const churnClasses = 3
	extra := make([]*LocalStores, churnClasses)
	for i := range extra {
		ls, err := StartLocalStores(2, fmt.Sprintf("churn%d", i), "test-secret", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ls.Close)
		extra[i] = ls
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // class churner
		defer wg.Done()
		for i, ls := range extra {
			if err := d.fs.AddVictimClass(ClassSpec{
				Name:   fmt.Sprintf("churn%d", i),
				Victim: true,
				Nodes:  ls.Nodes,
				Limits: container.Limits{MemoryBytes: 1 << 30},
			}); err != nil {
				t.Errorf("add class churn%d: %v", i, err)
			}
		}
	}()
	go func() { // evacuator
		defer wg.Done()
		for _, id := range []string{d.victims.Nodes[0].ID, d.victims.Nodes[1].ID} {
			if _, err := d.fs.Evacuate(context.Background(), id, EvacOptions{}); err != nil {
				t.Errorf("evacuate %s: %v", id, err)
			}
		}
	}()
	const files = 16
	go func() { // writer
		defer wg.Done()
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/churn%d", i)
			data := randomBytes(int64(200+i), 12_000)
			var err error
			for try := 0; try < 20; try++ {
				if err = d.fs.WriteFile(path, data); err == nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err != nil {
				t.Errorf("write %s: %v", path, err)
			}
		}
	}()
	wg.Wait()

	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/churn%d", i)
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, randomBytes(int64(200+i), 12_000)) {
			t.Fatalf("%s after churn: %v", path, err)
		}
	}
}

// S4: shrinking a file with an unreachable replica of the boundary stripe
// must never let the stale tail resurface: the shrink's boundary write
// lands degraded, shrink-then-grow reads zeros over the cut range while the
// missed copy is still behind, and once the node is back the repair queue
// replaces that copy with the cut stripe.
func TestTruncateBoundaryUnreachableReplica(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry),
		withHealth(HealthPolicy{ProbeInterval: -1}))
	stripeN := d.fs.layout.Size()
	full := bytes.Repeat([]byte{0xAB}, int(2*stripeN+stripeN/2)) // 2.5 stripes

	// The shrink stays inside the last stripe (index 2), so no whole
	// stripes are deleted and the boundary write is the only store traffic.
	// Find a file whose boundary stripe replicates onto victim nodes:
	// those stores can be taken down and brought back without losing the
	// metadata the own class holds.
	var path string
	var reps []string
	for i := 0; i < 64; i++ {
		p := fmt.Sprintf("/trim%d", i)
		if err := d.fs.WriteFile(p, full); err != nil {
			t.Fatal(err)
		}
		f, err := d.fs.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		nodes := f.targets(stripe.Key(f.rec.ID, 2))
		f.Close()
		if strings.HasPrefix(nodes[0], "victim-") {
			path, reps = p, nodes
			break
		}
	}
	if path == "" {
		t.Fatal("no candidate file placed its boundary stripe on the victim class")
	}

	// Take the primary replica's store offline, keeping its data.
	var down int
	for i, n := range d.victims.Nodes {
		if n.ID == reps[0] {
			down = i
		}
	}
	addr := d.victims.Nodes[down].Addr
	store := d.victims.Server(down).Store()
	d.victims.Server(down).Close()

	shrink := 2*stripeN + stripeN/4 // cut the boundary stripe's tail
	if err := d.fs.Truncate(path, shrink); err != nil {
		t.Fatalf("truncate with one boundary replica unreachable: %v", err)
	}
	if c := d.fs.Counters(); c.DegradedWrites == 0 {
		t.Fatal("the boundary write missed a replica but was not degraded")
	}
	checkRegrown := func(when string) {
		t.Helper()
		got, err := d.fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != int64(len(full)) {
			t.Fatalf("%s: size after shrink-regrow = %d, want %d", when, len(got), len(full))
		}
		for i, b := range got {
			want := byte(0)
			if int64(i) < shrink {
				want = 0xAB
			}
			if b != want {
				t.Fatalf("%s: byte %d = %#x after shrink-regrow, want %#x (stale tail resurfaced)", when, i, b, want)
			}
		}
	}
	if err := d.fs.Truncate(path, int64(len(full))); err != nil { // grow back
		t.Fatal(err)
	}
	checkRegrown("missed copy still behind")

	// The node comes back with its (stale) data intact.
	srv := kvstore.NewServer(store, "test-secret")
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	forceUp(t, d.fs, reps[0])
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled: %+v", d.fs.RepairStats())
	}
	raw, ok, err := store.Get(dataKey(stripe.Key(stripeKeyID(t, d, path), 2)))
	if _, _, payload, perr := erasure.ParseShard(raw); err != nil || !ok || perr != nil || int64(len(payload)) != stripeN/4 {
		t.Fatalf("returned copy after repair: %d-byte payload (%v %v %v), want the %d-byte cut stripe",
			len(payload), ok, err, perr, stripeN/4)
	}
	checkRegrown("after repair")
}

// stripeKeyID returns the file ID behind path.
func stripeKeyID(t *testing.T, d *testDeploy, path string) string {
	t.Helper()
	rec, err := d.fs.meta.statRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	return rec.File.ID
}

// TestRepairUnitOutrunsSizeCommit pins the enqueue-before-commit race
// the chaos heal-rejoin scenario exposed: a degraded write enqueues its
// repair unit as each stripe lands, but Close commits the file's new
// size last, so a fast repair worker can pop the unit while the record
// still shows the old size and the stripe index looks out of range.
// fixStripe used to drop the unit — orphaning the repair, since the
// write's only enqueue had already happened — leaving the hole for the
// catch-all scrub to find. The stripe must stay owed and no census pass
// may judge it before the commit; Close puts it back on the queue, whose
// fix restores it with no pass. A unit genuinely past EOF is still past
// it after the commit that re-queues it, and the pass that makes due
// releases it.
func TestRepairUnitOutrunsSizeCommit(t *testing.T) {
	d := newTestFS(t, 2, 2,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withHealth(HealthPolicy{ProbeInterval: -1}))
	fs := d.fs
	// settled waits for the queue to pop and drop everything it was given.
	settled := func(what string) RepairStats {
		t.Helper()
		if !fs.WaitRepairIdle(10 * time.Second) {
			t.Fatalf("%s: repair queue never idled: %+v", what, fs.RepairStats())
		}
		return fs.RepairStats()
	}

	f, err := fs.Create("/race")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{7}, 10_000)); err != nil {
		t.Fatal(err)
	}
	if rec, err := fs.meta.statRecord("/race"); err != nil || rec.File.Size != 0 {
		t.Fatalf("size committed before Close: %+v, %v", rec, err)
	}
	// Mid-window: the stripes are on the stores, the size commit is not.
	// One copy of stripe 0 goes missing, and its unit is popped now.
	sk := stripe.Key(f.rec.ID, 0)
	store := storesByID(d)[f.targets(sk)[1]]
	if n := store.Del(dataKey(sk)); n != 1 {
		t.Fatalf("deleted %d copies, want 1", n)
	}
	fs.repairs.enqueue("/race", sk, 0, 0)
	before := settled("before Close")
	if before.Owed != 1 || before.Passes != 0 {
		t.Fatalf("a unit past the committed size: %+v, want its stripe owed and no pass", before)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := settled("after Close")
	if st.Owed != 0 || st.Passes != 0 || st.Repaired != 1 {
		t.Fatalf("after Close: %+v, want the re-queued unit to repair it, no pass and nothing owed", st)
	}
	if _, ok, _ := store.Get(dataKey(sk)); !ok {
		t.Fatal("the re-queued unit did not restore the missing copy")
	}

	// A unit beyond the file for good is owed; the file's next size
	// commit re-queues it, and as it is still past EOF a pass is due.
	fs.repairs.enqueue("/race", stripe.Key(f.rec.ID, 99), 99, 0)
	if st := settled("ghost"); st.Owed != 1 || st.Passes != 0 {
		t.Fatalf("a unit past EOF: %+v, want its stripe owed and no pass", st)
	}
	g, err := fs.OpenFile("/race", O_WRONLY|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte{8}); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if st := settled("after the ghost's pass"); st.Owed != 0 || st.Passes != 1 {
		t.Fatalf("after the next commit: %+v, want the ghost released by one pass", st)
	}
}

// TestSizeCommitDuringFixIsRetried: a fix that read a file's size before
// its writer's Close committed it drops the stripe as past EOF after the
// commit has come and gone. The commit is remembered while a fix is in
// flight, so that drop puts the unit back on the queue, and its fix by the
// new size restores the missing copy with no pass. Without a commit the
// stripe stays owed and no pass runs, until the writer's Close re-queues
// it.
func TestSizeCommitDuringFixIsRetried(t *testing.T) {
	d := newTestFS(t, 2, 2,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withHealth(HealthPolicy{ProbeInterval: -1}))
	fs, q := d.fs, d.fs.repairs
	// raced writes path with one copy of its stripe missing, and runs a fix
	// of that stripe that finds it past EOF; with commit, the writer's Close
	// lands while the fix is in flight.
	raced := func(path string, commit bool) (*File, *kvstore.Store, string) {
		f, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{5}, 10_000)); err != nil {
			t.Fatal(err)
		}
		sk := stripe.Key(f.rec.ID, 0)
		store := storesByID(d)[f.targets(sk)[1]]
		if n := store.Del(dataKey(sk)); n != 1 {
			t.Fatalf("deleted %d copies, want 1", n)
		}
		u := repairUnit{path: path, sk: sk, enqueuedAt: time.Now()}
		q.mu.Lock()
		q.inFlight++
		q.hold(u.sk, 1)
		q.mu.Unlock()
		if commit {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		q.drop(u, fixOutcome{blocked: pastEOF})
		q.doneOne(u)
		return f, store, sk
	}
	restored := func(what string, store *kvstore.Store, sk string, owed int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := fs.RepairStats()
			_, ok, _ := store.Get(dataKey(sk))
			if ok && st.Owed == owed && fs.WaitRepairIdle(0) {
				if st.Passes != 0 {
					t.Fatalf("%s: %+v, want no pass", what, st)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: copy restored %v, %+v", what, ok, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	open, openStore, openSK := raced("/open", false)
	time.Sleep(3 * passGap)
	if st := fs.RepairStats(); st.Passes != 0 || st.Owed != 1 {
		t.Fatalf("a past-EOF drop with no commit: %+v, want it owed and no pass", st)
	}
	_, store, sk := raced("/closed", true)
	restored("a commit during the fix", store, sk, 1)
	if err := open.Close(); err != nil {
		t.Fatal(err)
	}
	restored("the writer's later Close", openStore, openSK, 0)
}

// TestReplicatedReadPastMissingCopyRepairs: with R = 2 and one copy
// deleted straight from its store, the read's burst misses at the first
// copy and the gather serves the other one. The read must count as
// degraded and queue the stripe, and the repair queue must restore the
// deleted copy — the same treatment an erasure read gives a missing shard.
//
// The deleted copy is the stripe's rank-0 target and the survivor ranks
// second, and the test pins that order: a detector that never suspects a
// node keeps both Up, so neither the burst nor the gather reorders them,
// and with no spare the gather never hedges past the deleted copy onto
// the survivor before the miss is in. On a loaded machine either could
// otherwise serve the read from the survivor alone, degraded-free.
func TestReplicatedReadPastMissingCopyRepairs(t *testing.T) {
	d := newTestFS(t, 2, 4,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2, ReadSpare: -1}),
		withHealth(HealthPolicy{ProbeInterval: -1, SuspectAfter: math.MaxInt32}))
	data := randomBytes(73, 4096) // one stripe
	if err := d.fs.WriteFile("/copy", data); err != nil {
		t.Fatal(err)
	}
	sk, nodes := stripeTargets(t, d, "/copy", 0)
	store := storesByID(d)[nodes[0]]
	if n := store.Del(dataKey(sk)); n != 1 {
		t.Fatalf("deleted %d copies on %s, want 1", n, nodes[0])
	}
	f, err := d.fs.Open("/copy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read past a missing copy: %v (bytes equal %v)", err, bytes.Equal(got, data))
	}
	if n := spanOutcomes(d.fs.obs.reg.Snapshot(), "read")["degraded"]; n != 1 {
		t.Errorf("read counted %d degraded spans, want 1", n)
	}
	if st := d.fs.RepairStats(); st.Enqueued != 1 {
		t.Fatalf("read past a missing copy enqueued %d units, want 1", st.Enqueued)
	}
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled: %+v", d.fs.RepairStats())
	}
	if _, ok, _ := store.Get(dataKey(sk)); !ok {
		t.Fatal("repair did not restore the deleted copy")
	}
}
