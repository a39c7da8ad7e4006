package core

// Revocation-protocol tests: the Draining fence, resumable evacuation,
// forced release at the deadline, the graduated monitor, and the chaos
// soak that crashes an evacuation mid-flight and demands zero loss.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"memfss/internal/faultwrap"
	"memfss/internal/health"
	"memfss/internal/kvstore"
)

func withEvac(e EvacPolicy) deployOpt {
	return func(c *Config) { c.Evac = e }
}

// dataKeySet snapshots the data keys of one local store.
func dataKeySet(d *LocalStores, i int) map[string]bool {
	out := make(map[string]bool)
	for _, k := range d.Server(i).Store().KeysN("data:", 0) {
		out[k] = true
	}
	return out
}

// TestDrainingFencesWrites: while a node is fenced Draining, replicated
// writes must not land on it (they degrade to the surviving replicas with
// quorum accounting), reads must still probe it, and lifting the fence
// restores normal placement.
func TestDrainingFencesWrites(t *testing.T) {
	d := newTestFS(t, 3, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}))
	pre := map[string][]byte{}
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/pre%d", i)
		pre[p] = randomBytes(int64(500+i), 40_000)
		if err := d.fs.WriteFile(p, pre[p]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	before := dataKeySet(d.victims, 0)

	d.fs.detector.SetDraining(victimID, true)
	if got := d.fs.nodeState(victimID); got != health.Draining {
		t.Fatalf("nodeState = %v, want Draining", got)
	}
	if got := d.fs.Draining(); len(got) != 1 || got[0] != victimID {
		t.Fatalf("Draining() = %v", got)
	}

	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/fenced%d", i)
		if err := d.fs.WriteFile(p, randomBytes(int64(600+i), 40_000)); err != nil {
			t.Fatal(err)
		}
	}
	after := dataKeySet(d.victims, 0)
	for k := range after {
		if !before[k] {
			t.Fatalf("write landed on fenced node: %s", k)
		}
	}
	if c := d.fs.Counters(); c.FencedWrites == 0 {
		t.Error("no fenced writes counted though the node holds data and was a placement target")
	}
	// Reads keep probing the fenced node: its pre-fence replicas serve.
	for p, want := range pre {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s while fenced: %v", p, err)
		}
	}

	d.fs.detector.SetDraining(victimID, false)
	if got := d.fs.nodeState(victimID); got == health.Draining {
		t.Fatal("fence did not lift")
	}
	if got := d.fs.Draining(); len(got) != 0 {
		t.Fatalf("Draining() after unfence = %v", got)
	}
}

// TestEvacuateWriteFenceRace is the regression for the drain/flush race:
// unreplicated writes racing Evacuate used to slip in between the
// drain's key listing and the post-drain FlushAll and be destroyed. The
// detach + final-sweep protocol must preserve every write that reported
// success.
func TestEvacuateWriteFenceRace(t *testing.T) {
	d := newTestFS(t, 1, 3, withRetry(fastRetry))
	for i := 0; i < 40; i++ {
		if err := d.fs.WriteFile(fmt.Sprintf("/seed%d", i), randomBytes(int64(i), 20_000)); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID

	var (
		mu      sync.Mutex
		written = map[string][]byte{}
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := fmt.Sprintf("/race-w%d-%d", w, i)
				data := randomBytes(int64(1000+100*w+i), 12_000)
				// Failures are fine mid-evacuation (the node leaves the
				// pool); only successful writes carry a durability promise.
				if err := d.fs.WriteFile(p, data); err == nil {
					mu.Lock()
					written[p] = data
					mu.Unlock()
				}
			}
		}(w)
	}

	time.Sleep(10 * time.Millisecond) // let the writers get going
	rep, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("evacuate: %v", err)
	}
	if rep.Forced {
		t.Fatalf("evacuation hit the deadline in a healthy deployment: %+v", rep)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("evacuated store still holds %d bytes", st.BytesUsed)
	}

	mu.Lock()
	defer mu.Unlock()
	t.Logf("evacuated %s: moved=%d orphans=%d passes=%d; %d racing writes succeeded",
		victimID, rep.Moved, rep.Orphans, rep.Passes, len(written))
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/seed%d", i)
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, randomBytes(int64(i), 20_000)) {
			t.Fatalf("%s lost after evacuation: %v", p, err)
		}
	}
	for p, want := range written {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("successful racing write %s lost to the evacuation flush: %v", p, err)
		}
	}
}

// TestEvacuateResumeAfterInterrupt: a canceled evacuation aborts cleanly
// (fence down, node still in the deployment, data intact) and a plain
// re-run completes — the crashed-mid-evacuation recovery story.
func TestEvacuateResumeAfterInterrupt(t *testing.T) {
	d := newTestFS(t, 2, 3)
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/res%d", i)
		files[p] = randomBytes(int64(700+i), 50_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // "crash" before the drain makes progress
	if _, err := d.fs.Evacuate(ctx, victimID, EvacOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted evacuation returned %v, want context.Canceled", err)
	}
	if got := d.fs.Draining(); len(got) != 0 {
		t.Fatalf("fence left up after abort: %v", got)
	}
	foundNode := false
	for _, cls := range d.fs.Classes() {
		for _, n := range cls.Nodes {
			if n.ID == victimID {
				foundNode = true
			}
		}
	}
	if !foundNode {
		t.Fatal("aborted evacuation removed the node")
	}
	// The deployment still works mid-recovery.
	if err := d.fs.WriteFile("/mid", randomBytes(9, 8_000)); err != nil {
		t.Fatal(err)
	}

	// Resume: the re-run drains from scratch and completes.
	rep, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{})
	if err != nil {
		t.Fatalf("resumed evacuation: %v", err)
	}
	if rep.Forced {
		t.Fatalf("resumed evacuation forced: %+v", rep)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("evacuated store still holds %d bytes", st.BytesUsed)
	}
	if _, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); !errors.Is(err, errUnknownNode) {
		t.Fatalf("third run on removed node: %v, want unknown node", err)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after resumed evacuation: %v", p, err)
		}
	}
	rep2, err := d.fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Damaged) != 0 {
		t.Fatalf("fsck damage after resumed evacuation: %v", rep2.Damaged)
	}
}

// inClasses reports whether a node is still a member of the deployment.
func inClasses(fs *FileSystem, nodeID string) bool {
	for _, cls := range fs.Classes() {
		for _, n := range cls.Nodes {
			if n.ID == nodeID {
				return true
			}
		}
	}
	return false
}

// setVictimRate sets every victim's network budget to bps, after writes
// that filled the victims at withVictimNet's rate. A victim already
// detached has no throttle left; its error is returned last.
func setVictimRate(d *testDeploy, bps int64) (err error) {
	for _, n := range d.victims.Nodes {
		if e := d.fs.conns.throttle(n.ID).SetRate(bps); e != nil {
			err = e
		}
	}
	return err
}

// TestRevokeDuringDrain: a revocation that arrives while a partial drain
// holds the node preempts the drain instead of failing. The drain returns
// its partial report, and the revocation's evacuation removes the node
// with every file intact. A per-node drain slot used to refuse the
// revocation and leave the lease revoked with the node still in the
// deployment.
func TestRevokeDuringDrain(t *testing.T) {
	d := newTestFS(t, 2, 2, withVictimNet(1<<30))
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("/rd%d", i)
		files[p] = randomBytes(int64(1600+i), 128<<10)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	if err := setVictimRate(d, 128<<10); err != nil {
		t.Fatal(err)
	}
	victimID := d.victims.Nodes[0].ID
	type drained struct {
		rep *DrainReport
		err error
	}
	done := make(chan drained, 1)
	go func() {
		rep, err := d.fs.DrainNode(context.Background(), victimID, 1)
		setVictimRate(d, 1<<30) // the slow network only has to hold the drain
		done <- drained{rep, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(d.fs.Draining()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the drain never fenced the node")
		}
		time.Sleep(time.Millisecond)
	}
	rep, err := d.fs.Revoke(context.Background(), victimID, RevokeOptions{Force: true})
	if err != nil {
		t.Fatalf("revocation during a drain = %+v, %v; want the node evacuated", rep, err)
	}
	dr := <-done
	if dr.err != nil {
		t.Fatalf("preempted drain: %v", dr.err)
	}
	if dr.rep.BytesAfter <= dr.rep.Target {
		t.Fatalf("the drain finished before the revocation (%+v); the test needs a slower drain", dr.rep)
	}
	if inClasses(d.fs, victimID) {
		t.Fatal("revoked node still registered")
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("revoked store still holds %d bytes", st.BytesUsed)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the revocation: %v", p, err)
		}
	}
}

// TestPreemptingRevokeStartsWithoutMonitor: a revocation that preempts a
// drain and whose caller stops waiting still evacuates the node with no
// Monitor running: the preempted drain starts the record's open goal when
// it ends. The leave used to wait for the next trigger, and the victim
// kept its bytes.
func TestPreemptingRevokeStartsWithoutMonitor(t *testing.T) {
	d := newTestFS(t, 2, 2, withVictimNet(1<<30))
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("/pr%d", i)
		files[p] = randomBytes(int64(1800+i), 128<<10)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	if err := setVictimRate(d, 128<<10); err != nil {
		t.Fatal(err)
	}
	victimID := d.victims.Nodes[0].ID
	done := make(chan error, 1)
	go func() {
		_, err := d.fs.DrainNode(context.Background(), victimID, 1)
		done <- err
	}()
	for len(d.fs.Draining()) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := d.fs.Revoke(ctx, victimID, RevokeOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("revoke while the drain holds the node: %v, want the caller's deadline", err)
	}
	setVictimRate(d, 1<<30) // the slow network only has to outlast the caller's wait
	if err := <-done; err != nil {
		t.Fatalf("preempted drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for inClasses(d.fs, victimID) || d.victims.Server(0).Store().Stats().BytesUsed != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("revoked node not evacuated (member %v, %d bytes)",
				inClasses(d.fs, victimID), d.victims.Server(0).Store().Stats().BytesUsed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the revocation: %v", p, err)
		}
	}
}

// TestRevocationDeadlineCountsFromFence: a background revocation that
// failed keeps its deadline as a span from a run's fence, not as a point
// in time. A later evacuation, started after that span has passed, gets
// the whole span and drains fully. The record used to keep the failed
// run's absolute deadline, which the later run merged as already passed:
// it force-released the node and lost unreplicated files.
func TestRevocationDeadlineCountsFromFence(t *testing.T) {
	d := newTestFS(t, 2, 2)
	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/sd%d", i)
		files[p] = randomBytes(int64(1900+i), 32<<10)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	const span = 300 * time.Millisecond
	cli := d.fs.conns.detach(victimID)
	if _, err := d.fs.Revoke(context.Background(), victimID, RevokeOptions{EvacDeadline: span}); err == nil {
		t.Fatal("revocation of a node out of the pool succeeded")
	}
	d.fs.conns.mu.Lock()
	d.fs.conns.clients[victimID] = cli
	d.fs.conns.mu.Unlock()
	time.Sleep(span + 50*time.Millisecond)
	rep, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{Deadline: 20 * time.Second})
	if err != nil || rep.Forced || rep.AtRisk != 0 {
		t.Fatalf("evacuation after a failed revocation = %+v, %v; want a full drain", rep, err)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the evacuation: %v", p, err)
		}
	}
}

// TestEvacuatePreemptingDrainStartsNoSecondDrain: an Evacuate that
// preempts the Monitor's soft drain starts its own evacuation once the
// drain ends; the preempted drain starts nothing. It used to start the
// record's open soft goal again, a second drain the waiting Evacuate then
// had to preempt in turn.
func TestEvacuatePreemptingDrainStartsNoSecondDrain(t *testing.T) {
	d := newTestFS(t, 2, 2, withVictimNet(1<<30))
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("/pd%d", i)
		files[p] = randomBytes(int64(2000+i), 128<<10)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	if err := setVictimRate(d, 128<<10); err != nil {
		t.Fatal(err)
	}
	victimID := d.victims.Nodes[0].ID
	victim0 := d.victims.Server(0).Store()
	victim0.SetMaxMemory(victim0.Stats().BytesUsed * 100 / 95) // above the watermark, under the cap
	var mu sync.Mutex
	drains := 0
	mon := NewMonitor(d.fs, time.Hour, func(format string, args ...any) {
		if l := fmt.Sprintf(format, args...); strings.HasPrefix(l, "memfss: drain") && strings.Contains(l, victimID) {
			mu.Lock()
			drains++
			mu.Unlock()
		}
	})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	mon.sweep() // the one soft drain; no tick comes to start another
	for len(d.fs.Draining()) == 0 {
		time.Sleep(time.Millisecond)
	}
	type evacuated struct {
		rep *EvacReport
		err error
	}
	done := make(chan evacuated, 1)
	go func() {
		rep, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{Deadline: 20 * time.Second})
		done <- evacuated{rep, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for mu.Lock(); drains == 0; mu.Lock() {
		mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the preempted drain never ended")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Unlock()
	setVictimRate(d, 1<<30) // the slow network only has to hold the drain
	ev := <-done
	if ev.err != nil || ev.rep.Forced {
		t.Fatalf("evacuation preempting a drain = %+v, %v; want a full drain", ev.rep, ev.err)
	}
	time.Sleep(50 * time.Millisecond) // a second drain's report, had one run
	mu.Lock()
	if drains != 1 {
		t.Errorf("%d drains of %s ended, want the one the evacuation preempted", drains, victimID)
	}
	mu.Unlock()
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the evacuation: %v", p, err)
		}
	}
}

// TestRevokeOutlivesCanceledEvacuate: a revocation waiting on the leave
// run an Evacuate took up outlives that Evacuate's cancellation: the
// record still holds the revocation, so a new run evacuates the node and
// the caller gets its report, the notice the Evacuate cut short counted
// violated. The caller used to get the Evacuate's context.Canceled with
// its own ctx live, and no one started the revocation again.
func TestRevokeOutlivesCanceledEvacuate(t *testing.T) {
	d := newTestFS(t, 2, 2, withVictimNet(1<<30))
	files := map[string][]byte{}
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("/rc%d", i)
		files[p] = randomBytes(int64(2100+i), 128<<10)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range d.victims.Nodes {
		d.victims.Server(i).Store().SetMaxMemory(1 << 30)
	}
	if err := d.fs.AdvertiseCapacity(time.Minute); err != nil {
		t.Fatal(err)
	}
	lease, err := d.fs.Broker().Request("batch", 1)
	if err != nil {
		t.Fatal(err)
	}
	type revoked struct {
		rep RevokeReport
		err error
	}
	got := make(chan revoked, 1)
	go func() {
		rep, err := d.fs.Revoke(context.Background(), lease.Node, RevokeOptions{})
		got <- revoked{rep, err}
	}()
	for d.fs.Broker().Leases()[0].NoticedAt.IsZero() {
		time.Sleep(time.Millisecond)
	}
	if err := setVictimRate(d, 128<<10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	evac := make(chan error, 1)
	go func() {
		_, err := d.fs.Evacuate(ctx, lease.Node, EvacOptions{Deadline: 20 * time.Second})
		evac <- err
	}()
	for len(d.fs.Draining()) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-evac; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled evacuation: %v, want context.Canceled", err)
	}
	setVictimRate(d, 1<<30)
	select {
	case r := <-got:
		if r.err != nil || r.rep.SLOMet {
			t.Fatalf("revocation whose evacuation was canceled = %+v, %v; want the node evacuated, SLO violated", r.rep, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("revocation never finished")
	}
	if inClasses(d.fs, lease.Node) {
		t.Fatal("revoked node still registered")
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the revocation: %v", p, err)
		}
	}
}

// TestForcedReleaseDeadline: when the deadline expires the node is
// released anyway — flushed, removed, at-risk keys counted and handed to
// the repair queue — and with R=2 the surviving replicas plus the repair
// pass restore full redundancy with zero loss.
func TestForcedReleaseDeadline(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry))
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/f%d", i)
		files[p] = randomBytes(int64(800+i), 50_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	if len(dataKeySet(d.victims, 0)) == 0 {
		t.Skip("placement left victim 0 empty for this seed")
	}

	start := time.Now()
	rep, err := d.fs.Evacuate(context.Background(), victimID,
		EvacOptions{Deadline: time.Nanosecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("forced release errored: %v", err)
	}
	if !rep.Forced {
		t.Fatalf("nanosecond deadline not forced: %+v", rep)
	}
	if rep.AtRisk == 0 || rep.AtRisk != rep.Deferred {
		t.Fatalf("forced release counted AtRisk=%d Deferred=%d", rep.AtRisk, rep.Deferred)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("forced release took %s", elapsed)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("force-released store still holds %d bytes", st.BytesUsed)
	}
	for _, cls := range d.fs.Classes() {
		for _, n := range cls.Nodes {
			if n.ID == victimID {
				t.Fatal("force-released node still in class list")
			}
		}
	}
	if got := d.fs.Draining(); len(got) != 0 {
		t.Fatalf("fence left up after forced release: %v", got)
	}

	// Redundancy: every file reads from surviving replicas, and the repair
	// queue re-replicates the deferred stripes.
	if !d.fs.WaitRepairIdle(10 * time.Second) {
		t.Fatal("repair queue did not drain after forced release")
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after forced release: %v", p, err)
		}
	}
	fsck, err := d.fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(fsck.Damaged) != 0 {
		t.Fatalf("forced release lost data at R=2: %v", fsck.Damaged)
	}

	// The forced release is visible in telemetry.
	var forced, atRisk int64
	for _, fam := range d.fs.obs.reg.Snapshot() {
		switch fam.Name {
		case "memfss_fs_evac_forced_releases_total":
			for _, s := range fam.Series {
				forced += s.Value
			}
		case "memfss_fs_evac_at_risk_keys_total":
			for _, s := range fam.Series {
				atRisk += s.Value
			}
		}
	}
	if forced != 1 || atRisk != int64(rep.AtRisk) {
		t.Errorf("metrics forced=%v atRisk=%v, want 1 / %d", forced, atRisk, rep.AtRisk)
	}
}

// TestForcedReleaseFailedListing: a forced release whose listing of the
// node fails, retried, still flushes and removes the node, but reports the
// failure: it cannot count what it left at risk or queue its repair.
func TestForcedReleaseFailedListing(t *testing.T) {
	d, proxies := newChaosFS(t, 2, 2, faultwrap.Plan{},
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}), withRetry(fastRetry))
	for i := 0; i < 4; i++ {
		if err := d.fs.WriteFile(fmt.Sprintf("/f%d", i), randomBytes(int64(i), 50_000)); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	proxies[0].SetPlan(faultwrap.Plan{DropVerbs: []string{"SCAN"}})
	_, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{Deadline: time.Nanosecond})
	if err == nil || !strings.Contains(err.Error(), "SCAN") {
		t.Fatalf("forced release with a failing listing: err %v, want the listing's error", err)
	}
	if st := d.victims.Server(0).Store().Stats(); st.BytesUsed != 0 {
		t.Fatalf("store not flushed: %d bytes", st.BytesUsed)
	}
	if d.fs.victimNode(victimID) == nil {
		t.Fatal("node still a member after its release")
	}
}

// TestDrainNodePartial: a soft drain evicts data down to the target — and
// no further than one stripe past it — while the node stays registered
// and every file stays readable via probing.
func TestDrainNodePartial(t *testing.T) {
	d := newTestFS(t, 2, 2)
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/pd%d", i)
		files[p] = randomBytes(int64(900+i), 50_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	st := d.victims.Server(0).Store().Stats()
	if st.BytesUsed == 0 {
		t.Skip("placement left victim 0 empty for this seed")
	}
	target := st.BytesUsed / 2

	rep, err := d.fs.DrainNode(context.Background(), victimID, target)
	if err != nil {
		t.Fatalf("partial drain: %v", err)
	}
	if rep.BytesAfter > target {
		t.Fatalf("drain stopped at %d bytes, target %d (skipped=%d)",
			rep.BytesAfter, target, rep.Skipped)
	}
	if rep.Moved == 0 {
		t.Fatal("drain moved nothing")
	}
	got := d.victims.Server(0).Store().Stats().BytesUsed
	if got > target {
		t.Fatalf("store at %d bytes, target %d", got, target)
	}
	// A partial drain evicts only what pressure demands: the key that
	// crosses the target is the last one out.
	if oneKey := int64(4<<10+len("data:f-10#12")) + kvstore.EntryOverhead; got < target-oneKey {
		t.Fatalf("drain overshot: store at %d bytes, target %d (more than one %d-byte stripe under)",
			got, target, oneKey)
	}
	// The node stays registered and unfenced.
	foundNode := false
	for _, cls := range d.fs.Classes() {
		for _, n := range cls.Nodes {
			if n.ID == victimID {
				foundNode = true
			}
		}
	}
	if !foundNode {
		t.Fatal("partial drain removed the node")
	}
	if got := d.fs.Draining(); len(got) != 0 {
		t.Fatalf("fence left up after partial drain: %v", got)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after partial drain: %v", p, err)
		}
	}
}

// TestWriteInPlaceAfterDrain: in-place writes reach a stripe a partial
// drain moved. After victim-0 is drained to half, a 100-byte WriteAt in
// every 4 KiB stripe of every file must read back exactly. Writes never
// looked for a moved stripe: under R = 1 the offset VSET created a
// zero-filled copy on the slot that hid the moved one, and 4 of 12 files
// read back with 3 981–19 899 bytes zeroed.
func TestWriteInPlaceAfterDrain(t *testing.T) {
	for _, c := range drainModes {
		t.Run(c.name, func(t *testing.T) {
			d, files, _ := drainedDeploy(t, c.red)
			for p, want := range files {
				f, err := d.fs.OpenFile(p, O_RDWR)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(want); off += 4 << 10 {
					at := off + (off/37)%(4<<10-100)
					patch := randomBytes(int64(at), 100)
					if _, err := f.WriteAt(patch, int64(at)); err != nil {
						t.Fatalf("%s: WriteAt %d: %v", p, at, err)
					}
					copy(want[at:], patch)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			wrong := 0
			for p, want := range files {
				got, err := d.fs.ReadFile(p)
				if err != nil || !bytes.Equal(got, want) {
					wrong++
					t.Errorf("%s reads back wrong after in-place writes: %v", p, err)
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d files wrong", wrong, len(files))
			}
		})
	}
}

// TestDrainNodePreservesRacingWrite: the compare-and-delete protocol must
// never lose a write that updates a key after the drain copied it.
func TestDrainNodePreservesRacingWrite(t *testing.T) {
	d := newTestFS(t, 1, 2, withRetry(fastRetry))
	for i := 0; i < 8; i++ {
		if err := d.fs.WriteFile(fmt.Sprintf("/dr%d", i), randomBytes(int64(i), 30_000)); err != nil {
			t.Fatal(err)
		}
	}
	victimID := d.victims.Nodes[0].ID
	if d.victims.Server(0).Store().Stats().BytesUsed == 0 {
		t.Skip("placement left victim 0 empty for this seed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	final := map[string][]byte{}
	var mu sync.Mutex
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := fmt.Sprintf("/dr%d", i%8)
			data := randomBytes(int64(2000+i), 30_000)
			if err := d.fs.WriteFile(p, data); err == nil {
				mu.Lock()
				final[p] = data
				mu.Unlock()
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if _, err := d.fs.DrainNode(context.Background(), victimID, 1); err != nil {
		t.Fatalf("drain under writes: %v", err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for p, want := range final {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("racing write %s lost by partial drain: %v", p, err)
		}
	}
}

// TestReadDuringMoveNeverSeesHole is the regression for the hole race: a
// reader that probed a move's destination before the copy landed and its
// source after the release saw the stripe nowhere and returned zeros with
// a nil error. Copy-before-delete and the successor walk close it. Readers byte-verify a fixed file set at
// R=1 while partial drains ping-pong every stripe between the two victims,
// then an evacuation removes one; nothing may ever read back wrong.
func TestReadDuringMoveNeverSeesHole(t *testing.T) {
	d := newTestFS(t, 2, 2)
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/h%d", i)
		files[p] = randomBytes(int64(1100+i), 40_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for p, want := range files {
					select {
					case <-stop:
						return
					default:
					}
					got, err := d.fs.ReadFile(p)
					if err != nil {
						t.Errorf("%s during a move: %v", p, err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s read back wrong during a move (acknowledged bytes as a hole)", p)
						return
					}
				}
			}
		}()
	}
	ctx := context.Background()
	for round := 0; round < 4 && !t.Failed(); round++ {
		for _, n := range d.victims.Nodes {
			if _, err := d.fs.DrainNode(ctx, n.ID, 1); err != nil {
				t.Errorf("drain %s: %v", n.ID, err)
			}
		}
	}
	if _, err := d.fs.Evacuate(ctx, d.victims.Nodes[0].ID, EvacOptions{}); err != nil {
		t.Errorf("evacuate: %v", err)
	}
	close(stop)
	wg.Wait()
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the moves: %v", p, err)
		}
	}
}

// TestMonitorGraduated: soft pressure triggers a partial drain (node stays
// registered below the watermark); a revocation triggers the full
// evacuation, which the running monitor logs.
func TestMonitorGraduated(t *testing.T) {
	d := newTestFS(t, 2, 2)
	var mu sync.Mutex
	var logLines []string
	mon := NewMonitor(d.fs, 10*time.Millisecond, func(format string, args ...any) {
		mu.Lock()
		logLines = append(logLines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/g%d", i)
		files[p] = randomBytes(int64(300+i), 50_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	victim0 := d.victims.Server(0).Store()
	used := victim0.Stats().BytesUsed
	if used == 0 {
		t.Skip("placement left victim 0 empty for this seed")
	}
	// Soft pressure: fill ~95% of the cap (above the 0.9 watermark, under
	// the cap). The monitor must partial-drain to 75% without removing the
	// node.
	victim0.SetMaxMemory(used * 100 / 95)
	soft := victim0.Stats().MaxMemory * 3 / 4
	deadline := time.Now().Add(5 * time.Second)
	for victim0.Stats().BytesUsed > soft {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never drained soft pressure (used=%d target=%d)",
				victim0.Stats().BytesUsed, soft)
		}
		time.Sleep(10 * time.Millisecond)
	}
	foundNode := false
	for _, cls := range d.fs.Classes() {
		for _, n := range cls.Nodes {
			if n.ID == d.victims.Nodes[0].ID {
				foundNode = true
			}
		}
	}
	if !foundNode {
		t.Fatal("soft pressure escalated to a full evacuation")
	}

	// Hard revocation: the tenant wants victim 1 back entirely.
	victimID := d.victims.Nodes[1].ID
	go d.fs.Revoke(context.Background(), victimID, RevokeOptions{})
	deadline = time.Now().Add(5 * time.Second)
	for {
		stillThere := false
		for _, cls := range d.fs.Classes() {
			for _, n := range cls.Nodes {
				if n.ID == victimID {
					stillThere = true
				}
			}
		}
		if !stillThere {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never evacuated the revoked node")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Detach (leaving Classes) precedes the release-phase flush; give the
	// evacuation a moment to finish emptying the store.
	deadline = time.Now().Add(5 * time.Second)
	for d.victims.Server(1).Store().Stats().BytesUsed != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("revoked store still holds %d bytes",
				d.victims.Server(1).Store().Stats().BytesUsed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after graduated response: %v", p, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var sawDrain, sawEvac bool
	for _, l := range logLines {
		if strings.Contains(l, "partial drain") {
			sawDrain = true
		}
		if strings.Contains(l, "evacuated "+victimID) {
			sawEvac = true
		}
	}
	if !sawDrain || !sawEvac {
		t.Errorf("monitor log missed a phase (drain=%v evac=%v): %q", sawDrain, sawEvac, logLines)
	}
}

// TestMonitorBacksOffFailedRevocation: while a revocation keeps failing
// (the node's client is out of the pool), the monitor retries on a
// doubling backoff instead of every tick, and recovers once the node is
// reachable again.
func TestMonitorBacksOffFailedRevocation(t *testing.T) {
	d := newTestFS(t, 2, 2, withEvac(EvacPolicy{Backoff: 60 * time.Millisecond, MaxBackoff: 60 * time.Millisecond}))
	victimID := d.victims.Nodes[0].ID
	cli := d.fs.conns.detach(victimID)

	var mu sync.Mutex
	failures := 0
	mon := NewMonitor(d.fs, 5*time.Millisecond, func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "evacuate "+victimID) &&
			strings.Contains(line, "unknown node") {
			mu.Lock()
			failures++
			mu.Unlock()
		}
	})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	go d.fs.Revoke(context.Background(), victimID, RevokeOptions{})

	time.Sleep(250 * time.Millisecond)
	mu.Lock()
	got := failures
	mu.Unlock()
	// 250ms of 5ms ticks is ~50 chances; a 60ms backoff admits at most a
	// handful of attempts.
	if got == 0 || got > 10 {
		t.Fatalf("failed revocation attempts = %d, want 1..10 (backoff not applied)", got)
	}

	d.fs.conns.mu.Lock()
	d.fs.conns.clients[victimID] = cli
	d.fs.conns.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for d.victims.Server(0).Store().Stats().BytesUsed != 0 || len(d.fs.Draining()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("revocation never completed after the node came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVictimsReclaimIndependently: each victim's reclamation runs on its
// own, so soft pressure on victim-0 is relieved while victim-1's slow
// evacuation is still draining. The monitor used to run evacuations inline,
// one node after another, and victim-0 waited out victim-1's.
func TestVictimsReclaimIndependently(t *testing.T) {
	d := newTestFS(t, 2, 3, withVictimNet(1<<30))
	for i := 0; i < 16; i++ {
		if err := d.fs.WriteFile(fmt.Sprintf("/ri%d", i), randomBytes(int64(1700+i), 256<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := setVictimRate(d, 256<<10); err != nil {
		t.Fatal(err)
	}
	relieved := make(chan bool, 1) // whether victim-1 was still a member then
	v0, slow := d.victims.Nodes[0].ID, d.victims.Nodes[1].ID
	mon := NewMonitor(d.fs, 10*time.Millisecond, func(format string, args ...any) {
		var moved, skipped, before, after, target int64
		if _, err := fmt.Sscanf(fmt.Sprintf(format, args...),
			"memfss: drained "+v0+": moved=%d skipped=%d, %d -> %d bytes (target %d)",
			&moved, &skipped, &before, &after, &target); err == nil && after <= target {
			select {
			case relieved <- inClasses(d.fs, slow):
			default:
			}
		}
	})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	go d.fs.Revoke(context.Background(), slow, RevokeOptions{})
	for len(d.fs.Draining()) == 0 { // victim-1's evacuation is under way
		time.Sleep(time.Millisecond)
	}
	victim0 := d.victims.Server(0).Store()
	victim0.SetMaxMemory(victim0.Stats().BytesUsed * 100 / 95)
	start := time.Now()
	select {
	case during := <-relieved:
		if !during {
			t.Fatalf("victim-0 relieved %s after its pressure began, only once %s's evacuation had detached it",
				time.Since(start).Round(time.Millisecond), slow)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("victim-0 never relieved")
	}
	t.Logf("victim-0 relieved in %s while %s evacuates", time.Since(start).Round(time.Millisecond), slow)
	setVictimRate(d, 1<<30) // let the evacuation finish
	for inClasses(d.fs, slow) {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("%s never evacuated", slow)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRevocationChaosSoak moved to internal/chaos (runner-based), keeping
// its name and assertion strength.

// TestReadDirBatched: listing a large directory must cost O(shards)
// round trips (one MGET per metadata shard), not O(entries).
func TestReadDirBatched(t *testing.T) {
	d := newTestFS(t, 2, 1)
	if err := d.fs.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/dir/f%02d", i)
		if err := d.fs.WriteFile(p, randomBytes(int64(i), 100)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("f%02d", i))
	}
	before := d.fs.Counters().StoreOps
	entries, err := d.fs.ReadDir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	ops := d.fs.Counters().StoreOps - before
	if len(entries) != 40 {
		t.Fatalf("ReadDir returned %d entries", len(entries))
	}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Fatalf("entry %d = %q, want %q (sorted)", i, e.Name, want[i])
		}
		if e.IsDir || e.Size != 100 {
			t.Fatalf("entry %q = %+v", e.Name, e)
		}
	}
	// One GET per entry would be 1 (requireDir) + 1 (SMEMBERS) + 40 = 42
	// ops. Batched: 2 + one MGET per metadata shard (2 own nodes).
	if ops > 10 {
		t.Fatalf("batched ReadDir cost %d store ops, want O(shards)", ops)
	}
}

// TestAllocFileIDUnavailable: losing the client for the ID-counter node
// must classify as kvstore.ErrUnavailable (a store-reachability failure),
// not as a namespace error.
func TestAllocFileIDUnavailable(t *testing.T) {
	d := newTestFS(t, 2, 1)
	d.fs.conns.retire(d.fs.conns.detach(d.own.Nodes[0].ID))
	if _, err := d.fs.meta.allocFileID(); !errors.Is(err, kvstore.ErrUnavailable) {
		t.Fatalf("allocFileID without the counter node = %v, want ErrUnavailable", err)
	}
	// The full Create path fails too (the metadata shard lookup may reject
	// first with its own classification; it must not succeed or panic).
	if err := d.fs.WriteFile("/f", []byte("x")); err == nil {
		t.Fatal("Create succeeded without the ID-counter node")
	}
}

// TestEvacuateWithDeadReplica: revoking a node while another replica
// holder is permanently Down must re-home to the remaining healthy nodes
// promptly instead of stalling against the dead candidate until the
// deadline forces the release (and flushes last live copies).
func TestEvacuateWithDeadReplica(t *testing.T) {
	d := newTestFS(t, 2, 3,
		withRedundancy(Redundancy{Mode: RedundancyReplicate, Replicas: 2}),
		withRetry(fastRetry),
		withHealth(HealthPolicy{ProbeInterval: -1})) // detector opinion is test-driven
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/dead%d", i)
		files[p] = randomBytes(int64(1500+i), 40_000)
		if err := d.fs.WriteFile(p, files[p]); err != nil {
			t.Fatal(err)
		}
	}
	deadID := d.victims.Nodes[1].ID
	d.victims.Server(1).Close()
	forceDown(t, d.fs, deadID)

	rep, err := d.fs.Evacuate(context.Background(), d.victims.Nodes[0].ID,
		EvacOptions{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatalf("evacuation with a dead replica holder: %v", err)
	}
	if rep.Forced || rep.Deferred != 0 {
		t.Fatalf("drain stalled against the dead candidate: %+v", rep)
	}
	if rep.Elapsed > 5*time.Second {
		t.Fatalf("evacuation took %s with healthy destinations available", rep.Elapsed)
	}
	for p, want := range files {
		got, err := d.fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after evacuation with dead replica: %v", p, err)
		}
	}
}
