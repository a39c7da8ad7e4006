package core

// Integration tests for the node-health subsystem: the failure detector
// wired into the data path, health-aware replica placement, and the
// targeted background repair queue. The chaos soak is the acceptance
// gate — it replays the same seeded fault schedule under a detector that
// never condemns a node and under the default one, and demands the default
// run detect the dead node quickly, burn strictly fewer store attempts, and
// restore full redundancy without a full-namespace scan.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"memfss/internal/faultwrap"
	"memfss/internal/health"
)

func withHealth(h HealthPolicy) deployOpt {
	return func(c *Config) { c.Health = h }
}

func withRepair(r RepairPolicy) deployOpt {
	return func(c *Config) { c.Repair = r }
}

// forceDown feeds the detector enough failure reports to march a node
// Up -> Suspect -> Down, without any real outage. Tests that use it
// disable active probing so a live store cannot vote itself back Up.
func forceDown(t *testing.T, fs *FileSystem, nodeID string) {
	t.Helper()
	pol := fs.cfg.Health
	suspect, down := pol.SuspectAfter, pol.DownAfter
	if suspect == 0 {
		suspect = 1
	}
	if down == 0 {
		down = 3
	}
	for i := 0; i < suspect+down; i++ {
		fs.detector.ReportFailure(nodeID)
	}
	if st := fs.detector.State(nodeID); st != health.Down {
		t.Fatalf("node %s is %v after %d failure reports, want Down", nodeID, st, suspect+down)
	}
}

// forceUp reports enough successes to recover a node to Up (the
// detector's default of two).
func forceUp(t *testing.T, fs *FileSystem, nodeID string) {
	t.Helper()
	const up = 2
	for i := 0; i < up; i++ {
		fs.detector.ReportSuccess(nodeID)
	}
	if st := fs.detector.State(nodeID); st != health.Up {
		t.Fatalf("node %s is %v after %d success reports, want Up", nodeID, st, up)
	}
}

// TestRepairQueueRestoresDegradedWrite is the queue's happy path end to
// end: writes skip a replica the detector calls Down (creating real
// missing copies), the degraded stripes park because their target is
// unhealthy, and the moment the node is Up again the queue restores
// exactly those stripes — verified by a Scrub that finds nothing left to
// do.
func TestRepairQueueRestoresDegradedWrite(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry),
		withHealth(HealthPolicy{ProbeInterval: -1})) // detector opinion is test-driven
	victim := d.victims.Nodes[0].ID
	forceDown(t, d.fs, victim)

	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/deg%d", i)
		files[path] = randomBytes(int64(500+i), 15_000+i*256)
		if err := d.fs.WriteFile(path, files[path]); err != nil {
			t.Fatalf("write with one Down replica must degrade, not fail: %v", err)
		}
	}
	c := d.fs.Counters()
	if c.SkippedReplicaWrites == 0 {
		t.Fatal("no replica writes skipped despite a Down placement target")
	}
	if c.DegradedWrites == 0 {
		t.Fatal("no degraded writes recorded despite skipped replicas")
	}
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatalf("repair queue never idled: %+v", d.fs.RepairStats())
	}
	st := d.fs.RepairStats()
	if st.Enqueued == 0 {
		t.Fatal("degraded writes enqueued nothing")
	}
	if st.Parked == 0 {
		t.Fatalf("units for the Down node should be parked, got %+v", st)
	}

	// Recovery: the node comes back, parked units drain, redundancy heals.
	forceUp(t, d.fs, victim)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = d.fs.RepairStats()
		if st.Parked == 0 && d.fs.RepairIdle() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked units never drained after recovery: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Restored == 0 {
		t.Fatalf("queue restored no replicas: %+v", st)
	}
	if st.FullScrubs != 0 {
		t.Fatalf("targeted repair fell back to a full scrub: %+v", st)
	}

	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || len(rep.Unrepairable) != 0 || len(rep.Deferred) != 0 {
		t.Fatalf("scrub found work the repair queue should have done: %+v", rep)
	}
	for path, want := range files {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after repair: %v", path, err)
		}
	}
}

// TestRepairQueueOverflowFallsBackToScrub pins the catch-all: a queue too
// small for the degraded backlog trips overflow, owes a full Scrub, and
// the debt only clears once a Scrub runs with nothing deferred — so the
// Up transition of the node that caused the damage re-arms it.
func TestRepairQueueOverflowFallsBackToScrub(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry),
		withHealth(HealthPolicy{ProbeInterval: -1}),
		withRepair(RepairPolicy{QueueCap: 4}))
	victim := d.victims.Nodes[0].ID
	forceDown(t, d.fs, victim)

	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		path := fmt.Sprintf("/ovf%d", i)
		files[path] = randomBytes(int64(700+i), 20_000)
		if err := d.fs.WriteFile(path, files[path]); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.fs.RepairStats(); st.Overflows == 0 {
		t.Fatalf("QueueCap=4 never overflowed across 16 degraded files: %+v", st)
	}

	forceUp(t, d.fs, victim)
	if !d.fs.WaitRepairIdle(15 * time.Second) {
		t.Fatalf("queue never idled after recovery: %+v", d.fs.RepairStats())
	}
	st := d.fs.RepairStats()
	if st.FullScrubs == 0 {
		t.Fatalf("overflow owed a full scrub that never ran: %+v", st)
	}
	rep, err := d.fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || len(rep.Unrepairable) != 0 || len(rep.Deferred) != 0 {
		t.Fatalf("redundancy not fully restored after overflow scrub: %+v", rep)
	}
	for path, want := range files {
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after overflow recovery: %v", path, err)
		}
	}
}

// TestHealthScrubLiveWritesRace is the anti-entropy/data-path race test:
// Scrub runs continuously while writers rewrite and shrink-truncate their
// files. No pass may report a stripe unrepairable — a racing truncate or
// rewrite must read as "deleted on purpose", never as data loss — and the
// namespace must verify clean once the dust settles.
func TestHealthScrubLiveWritesRace(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))

	const writers = 4
	const rounds = 15
	stop := make(chan struct{})
	var wg sync.WaitGroup
	final := make([][]byte, writers)
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/race%d", w)
			for r := 0; r < rounds; r++ {
				data := randomBytes(int64(w*1000+r), 24_000+r*512)
				if err := d.fs.WriteFile(path, data); err != nil {
					errCh <- fmt.Errorf("write %s round %d: %w", path, r, err)
					return
				}
				final[w] = data
				// Shrink mid-stripe: the scrub must see the dropped tail
				// as intentional, not as lost redundancy.
				if err := d.fs.Truncate(path, int64(6_000+r*100)); err != nil {
					errCh <- fmt.Errorf("truncate %s round %d: %w", path, r, err)
					return
				}
				final[w] = data[:6_000+r*100]
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	passes := 0
	for {
		rep, err := d.fs.Scrub()
		if err != nil {
			t.Fatalf("scrub pass %d: %v", passes, err)
		}
		passes++
		if len(rep.Unrepairable) != 0 {
			t.Fatalf("scrub pass %d cried data loss during live writes: %v",
				passes, rep.Unrepairable)
		}
		select {
		case <-stop:
		default:
			continue
		}
		break
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	t.Logf("%d scrub passes raced %d writers cleanly", passes, writers)

	for w := 0; w < writers; w++ {
		path := fmt.Sprintf("/race%d", w)
		got, err := d.fs.ReadFile(path)
		if err != nil || !bytes.Equal(got, final[w]) {
			t.Fatalf("%s after race: err=%v, len=%d want %d", path, err, len(got), len(final[w]))
		}
	}
	rep, err := d.fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 0 {
		t.Fatalf("fsck found damage after scrub/write race: %v", rep.Damaged)
	}
}

// TestHealthChaosSoak moved to internal/chaos (runner-based), keeping its
// name and assertion strength.

// TestHealthProbeReadPrefersHealthyPrimary pins the read path: when a
// stripe's rank-0 replica is Down, reads go straight to the healthy
// replica without burning the retry budget against the dead one.
func TestHealthProbeReadPrefersHealthyPrimary(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry),
		withHealth(HealthPolicy{ProbeInterval: -1}))
	data := randomBytes(900, 30_000)
	if err := d.fs.WriteFile("/pr", data); err != nil {
		t.Fatal(err)
	}
	before := d.fs.Counters()
	// Every node in turn: whichever holds rank 0 for some stripe, reads
	// must keep succeeding with one replica Down and no extra attempts
	// beyond one per stripe read.
	for _, n := range d.victims.Nodes {
		forceDown(t, d.fs, n.ID)
		got, err := d.fs.ReadFile("/pr")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read with %s Down: %v", n.ID, err)
		}
		forceUp(t, d.fs, n.ID)
	}
	after := d.fs.Counters()
	ops := after.StoreOps - before.StoreOps
	attempts := after.StoreAttempts - before.StoreAttempts
	if attempts != ops {
		t.Fatalf("reads against live stores retried: %d attempts for %d ops", attempts, ops)
	}
}

// neverCondemn is the health soak's baseline posture: no probing and a
// Suspect threshold no streak reaches, so every node stays Up through the
// same detector code every deployment runs.
var neverCondemn = HealthPolicy{SuspectAfter: math.MaxInt32, ProbeInterval: -1}

// TestHealthNeverCondemnAttemptsEveryTarget: under neverCondemn a killed
// victim is never routed around — writes degrade by attempting it, not by
// skipping it — and every node keeps reporting Up.
func TestHealthNeverCondemnAttemptsEveryTarget(t *testing.T) {
	d, proxies := newChaosFS(t, 2, 3, faultwrap.Plan{},
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry), withHealth(neverCondemn))
	proxies[0].Kill()
	for i := 0; i < 8; i++ {
		if err := d.fs.WriteFile(fmt.Sprintf("/nc%d", i), randomBytes(int64(900+i), 30_000)); err != nil {
			t.Fatalf("write with one dead replica target: %v", err)
		}
	}
	c := d.fs.Counters()
	if c.DegradedWrites == 0 {
		t.Fatal("no write degraded: the killed victim was never a target")
	}
	if c.SkippedReplicaWrites != 0 {
		t.Fatalf("SkippedReplicaWrites = %d under a policy that condemns no node", c.SkippedReplicaWrites)
	}
	for id, h := range d.fs.Health() {
		if h.State != health.Up {
			t.Errorf("node %s reports %v, want Up", id, h.State)
		}
	}
}

// TestHealthDrainFenceHasOneSource holds an evacuation in its drain phase (the
// victim's proxy is paused, so no pass can list it) and demands that
// Draining(), Health() and the memfss_fs_draining_nodes gauge tell the
// same story while the fence is up and after the node is released.
func TestHealthDrainFenceHasOneSource(t *testing.T) {
	d, proxies := newChaosFS(t, 2, 2, faultwrap.Plan{}, withRetry(fastRetry), withHealth(neverCondemn))
	if err := d.fs.WriteFile("/fenced", randomBytes(77, 60_000)); err != nil {
		t.Fatal(err)
	}
	node := d.victims.Nodes[0].ID
	views := func() (listed []string, state health.State, registered bool, gauge float64) {
		h, ok := d.fs.Health()[node]
		fam := findFamily(d.fs.obs.reg.Snapshot(), "memfss_fs_draining_nodes")
		return d.fs.Draining(), h.State, ok, fam.Series[0].Gauge
	}
	if listed, state, _, gauge := views(); len(listed) != 0 || state != health.Up || gauge != 0 {
		t.Fatalf("before the evacuation: Draining() = %v, state %v, gauge %v", listed, state, gauge)
	}

	proxies[0].Pause()
	done := make(chan error, 1)
	go func() {
		_, err := d.fs.Evacuate(context.Background(), node, EvacOptions{Deadline: 30 * time.Second})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(d.fs.Draining()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the evacuation never raised its fence")
		}
		time.Sleep(time.Millisecond)
	}
	if listed, state, _, gauge := views(); len(listed) != 1 || listed[0] != node || state != health.Draining || gauge != 1 {
		t.Fatalf("mid-drain: Draining() = %v, state %v, gauge %v; want [%s], draining, 1", listed, state, gauge, node)
	}

	proxies[0].Resume()
	if err := <-done; err != nil {
		t.Fatalf("evacuate: %v", err)
	}
	if listed, _, registered, gauge := views(); len(listed) != 0 || registered || gauge != 0 {
		t.Fatalf("after release: Draining() = %v, still registered %v, gauge %v", listed, registered, gauge)
	}
	if got, err := d.fs.ReadFile("/fenced"); err != nil || !bytes.Equal(got, randomBytes(77, 60_000)) {
		t.Fatalf("data after the evacuation: %v", err)
	}
}
