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

	"memfss/internal/health"
	"memfss/internal/kvstore"
)

func withEvac(e EvacPolicy) deployOpt {
	return func(c *Config) { c.Evac = e }
}

// dataKeySet snapshots the data keys of one local store.
func dataKeySet(d *LocalStores, i int) map[string]bool {
	out := make(map[string]bool)
	for _, k := range d.Server(i).Store().Keys("data:") {
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

// TestEvacuateConcurrentDrainRefused: a second revocation of the same node
// fails fast instead of interleaving with the first.
func TestEvacuateConcurrentDrainRefused(t *testing.T) {
	d := newTestFS(t, 2, 2)
	victimID := d.victims.Nodes[0].ID
	if err := d.fs.acquireDrain(victimID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); err == nil ||
		!strings.Contains(err.Error(), "already being drained") {
		t.Fatalf("concurrent drain accepted: %v", err)
	}
	if _, err := d.fs.DrainNode(context.Background(), victimID, 1); err == nil ||
		!strings.Contains(err.Error(), "already being drained") {
		t.Fatalf("concurrent partial drain accepted: %v", err)
	}
	d.fs.releaseDrain(victimID)
	if _, err := d.fs.Evacuate(context.Background(), victimID, EvacOptions{}); err != nil {
		t.Fatalf("evacuation after release: %v", err)
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

// TestReadDuringMoveNeverSeesHole is the regression for the hole race
// (ROADMAP 4d): a reader that probed a move's destination before the copy
// landed and its source after the release saw the stripe nowhere and
// returned zeros with a nil error. Readers byte-verify a fixed file set at
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
// registered below the watermark); an explicit Revoke triggers the full
// evacuation.
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
	mon.Revoke(victimID)
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
// (the drain slot is held), the monitor retries on a doubling backoff
// instead of every tick, and recovers once the node is releasable.
func TestMonitorBacksOffFailedRevocation(t *testing.T) {
	d := newTestFS(t, 2, 2, withEvac(EvacPolicy{Backoff: 60 * time.Millisecond, MaxBackoff: 60 * time.Millisecond}))
	victimID := d.victims.Nodes[0].ID
	if err := d.fs.acquireDrain(victimID); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	failures := 0
	mon := NewMonitor(d.fs, 5*time.Millisecond, func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "already being drained") {
			mu.Lock()
			failures++
			mu.Unlock()
		}
	})
	mon.Revoke(victimID)
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	time.Sleep(250 * time.Millisecond)
	mu.Lock()
	got := failures
	mu.Unlock()
	// 250ms of 5ms ticks is ~50 chances; a 60ms backoff admits at most a
	// handful of attempts.
	if got == 0 || got > 10 {
		t.Fatalf("failed revocation attempts = %d, want 1..10 (backoff not applied)", got)
	}

	d.fs.releaseDrain(victimID)
	deadline := time.Now().Add(5 * time.Second)
	for d.victims.Server(0).Store().Stats().BytesUsed != 0 || len(d.fs.Draining()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("revocation never completed after the drain slot freed")
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
