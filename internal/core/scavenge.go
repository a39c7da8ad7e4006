package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"slices"
	"strings"
	"sync"
	"time"

	"memfss/internal/hrw"
	"memfss/internal/kvstore"
)

// AddVictimClass extends the storage space at runtime with a new scavenged
// class (paper §III-A/§III-D): newly created files place data across the
// enlarged class set; existing files keep their recorded snapshot and are
// untouched.
func (fs *FileSystem) AddVictimClass(spec ClassSpec) error {
	if err := fs.check(); err != nil {
		return err
	}
	if !spec.Victim {
		return fmt.Errorf("core: class %q must be a victim class", spec.Name)
	}
	if len(spec.Nodes) == 0 {
		return fmt.Errorf("core: class %q has no nodes", spec.Name)
	}
	if err := spec.Limits.Validate(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	next := make([]ClassSpec, len(fs.classes), len(fs.classes)+1)
	copy(next, fs.classes)
	next = append(next, spec)
	// Only validation (unique class names): files place through snapshots.
	if _, err := hrw.NewPlacer(placerClasses(next)...); err != nil {
		return err
	}
	if err := fs.conns.add(spec); err != nil {
		return err
	}
	fs.classes = next
	for _, n := range spec.Nodes {
		fs.detector.Register(n.ID)
	}
	return nil
}

// ApplyVictimCaps pushes each victim class's memory cap to its stores.
// Call after the stores are up (New tolerates unreachable victims, so this
// is separate from New).
func (fs *FileSystem) ApplyVictimCaps() error {
	fs.mu.RLock()
	classes := fs.classes
	fs.mu.RUnlock()
	var firstErr error
	for _, cls := range classes {
		if !cls.Victim || cls.Limits.MemoryBytes == 0 {
			continue
		}
		for _, n := range cls.Nodes {
			cli, err := fs.conns.client(n.ID)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if err := cli.SetMemCap(cls.Limits.MemoryBytes); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// --- victim revocation -------------------------------------------------------

// Revocation defaults (the configured backoffs live in Config.Evac) and
// constants.
const (
	defaultEvacDeadline = 30 * time.Second
	// drainSoftTarget is the fill fraction a partial drain without an
	// explicit target evicts a pressured store down to. It must stay below
	// the store's pressure watermark or the drain would never relieve
	// pressure.
	drainSoftTarget       = 0.75
	defaultEvacBackoff    = 2 * time.Second
	defaultEvacMaxBackoff = 30 * time.Second

	// movePassPause separates drain retry passes so a node with a
	// persistent per-key failure is not hammered in a tight loop.
	movePassPause = 20 * time.Millisecond
	// flushRetries re-attempts the release-phase listing and FlushAll
	// beyond the client's own retry budget: by then the node is already
	// out of placement, so giving up leaves stale bytes the tenant wants
	// back, or stripes short that no repair was queued for.
	flushRetries = 5
	// scanPage is how many slots of a store's scan order one SCAN walks:
	// the longest a listing holds the store's lock is one page.
	scanPage = 256
)

// EvacOptions tunes one evacuation.
type EvacOptions struct {
	// Deadline bounds the evacuation end to end; 0 takes the 30s default.
	// On expiry the node is force-released: flushed and removed with
	// unresolved keys counted at risk and handed to the repair queue.
	Deadline time.Duration
}

// EvacReport describes what one evacuation did.
type EvacReport struct {
	Node     string        // the evacuated node
	Moved    int           // keys confirmed on another node
	Orphans  int           // keys whose file is gone; dropped with the flush
	Deferred int           // unresolved keys handed to the repair queue
	AtRisk   int           // keys flushed before a copy was confirmed (forced only)
	Passes   int           // drain passes run
	Forced   bool          // deadline expired; the node was released anyway
	Elapsed  time.Duration // wall time fence to release
	Deadline time.Duration // effective deadline
}

// victimNode verifies nodeID is a registered victim node.
func (fs *FileSystem) victimNode(nodeID string) error {
	for _, c := range fs.Classes() {
		switch {
		case !slices.ContainsFunc(c.Nodes, func(n NodeSpec) bool { return n.ID == nodeID }):
		case !c.Victim:
			return fmt.Errorf("core: node %q is an own node; refusing to evacuate metadata", nodeID)
		default:
			return nil
		}
	}
	return fmt.Errorf("%w %q", errUnknownNode, nodeID)
}

// Evacuate runs the full revocation protocol against a victim node:
//
//  1. fence: the node enters Draining — replicated writes skip it (with
//     quorum accounting) while reads keep probing it.
//  2. drain: repeated mover passes (move.go) copy every data key to the
//     node that serves its slot position once this one has left
//     (fs.slots): a key in its slot to the slot's new node, a guest one
//     successor further on. Per-key failures are retried on the next
//     pass; the loop is idempotent, so a crashed or interrupted
//     evacuation can simply be re-run.
//  3. detach: the node leaves the classes new files snapshot and the
//     connection pool (no write reaches it any more), while this
//     evacuation keeps the client. Existing files' slots still name it.
//  4. sweep: a final full re-pass catches stripes written during the
//     drain (unreplicated and erasure writes are not fenced), then
//     re-lists until nothing is unresolved, for writes in flight at detach.
//  5. release: the store is flushed and the node unregistered, which
//     passes its slots on; the repair queue gets every stripe the release
//     leaves short, and a census pass for the stripes it owed on the node.
//
// When ctx is canceled before detach the evacuation aborts cleanly: the
// fence comes down and the node stays in the deployment. When the deadline
// expires (the tenant is waiting) the node is force-released: unresolved
// keys are counted AtRisk and handed to the repair queue, which restores
// redundancy from the surviving copies or shards.
//
// Evacuate preempts a partial drain of the node and joins an evacuation
// already running (reclaim.go) rather than failing.
func (fs *FileSystem) Evacuate(ctx context.Context, nodeID string, opts EvacOptions) (*EvacReport, error) {
	run := fs.reclaimWait(ctx, nodeID, reclaimGoal{leave: true, deadline: cmp.Or(opts.Deadline, defaultEvacDeadline)})
	return run.evac, run.err
}

// evacuate runs the protocol Evacuate describes, within deadline of its
// fence.
func (fs *FileSystem) evacuate(ctx context.Context, cli *kvstore.Client, nodeID string, deadline time.Duration) (*EvacReport, error) {
	dctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	start := time.Now()
	phaseStart := start
	observePhase := func(name string) {
		now := time.Now()
		fs.obs.evacPhase(name).Observe(now.Sub(phaseStart))
		fs.obs.note("evac", nodeID,
			fmt.Sprintf("phase %s done in %s", name, now.Sub(phaseStart).Round(time.Millisecond)), 0)
		phaseStart = now
	}
	rep := &EvacReport{Node: nodeID, Deadline: deadline}
	resolved := make(map[string]bool)

	// Phase 1: fence.
	fs.detector.SetDraining(nodeID, true)
	observePhase("fence")

	// Phase 2: drain passes until a pass resolves every listed key.
	mv := fs.newMover(cli, nodeID)
	mv.leaving, mv.short = true, make(map[string]bool)
	if err := fs.evacPasses(dctx, mv, rep, resolved, false); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			// Canceled: abort cleanly. The node stays in the deployment
			// and the drain can be re-run from scratch.
			fs.detector.SetDraining(nodeID, false)
			rep.Elapsed = time.Since(start)
			return rep, fmt.Errorf("core: evacuate %s: %w", nodeID, err)
		}
		rep.Forced = true
	}
	observePhase("drain")

	// Phase 3: detach. The node leaves new files' placement and the pool;
	// this evacuation keeps the client for the sweep and the flush.
	fs.mu.Lock()
	next := make([]ClassSpec, 0, len(fs.classes))
	for _, c := range fs.classes {
		c.Nodes = slices.DeleteFunc(slices.Clone(c.Nodes), func(n NodeSpec) bool { return n.ID == nodeID })
		if len(c.Nodes) > 0 {
			next = append(next, c)
		}
	}
	fs.classes = next
	fs.mu.Unlock()
	fs.conns.detach(nodeID)
	observePhase("detach")

	// Phase 4: final sweep. Post-detach no new write can route to the
	// node, so the listing settles once the writes in flight at detach
	// have landed. The first pass deliberately ignores
	// the resolved set: unreplicated and erasure stripes kept taking
	// writes at the source during the drain, so every surviving key is
	// re-copied. Later passes retry only stragglers. From here the
	// protocol cannot abort — the node is out of the pool — so both
	// cancellation and deadline expiry escalate to a forced release.
	if !rep.Forced && fs.evacPasses(dctx, mv, rep, resolved, true) != nil {
		rep.Forced = true
	}
	observePhase("sweep")

	// Phase 5: release. On a forced release, list what is about to be
	// lost from this store: every unresolved stripe is left short. A
	// listing that fails even retried fails the evacuation: the release
	// goes on, but the operator must scrub for what it left short.
	var listErr error
	if rep.Forced {
		var keys []string
		listErr = retryRelease(func() (err error) { keys, err = listStripes(cli); return err })
		for _, key := range keys {
			if !resolved[key] {
				rep.Deferred++
				mv.short[key] = true
			}
		}
		rep.AtRisk = rep.Deferred
	}
	flushErr := retryRelease(cli.FlushAll)
	fs.conns.retire(cli)
	// No longer a placement target: forget its history — and with it the
	// fence — so health snapshots and write-skip decisions stop
	// mentioning it.
	fs.detector.Unregister(nodeID)
	// Its slots have passed on. The stripes left short — another slot
	// re-seated, or a key unresolved — are the repair queue's; a stripe
	// owed on the node is due its census pass, as an unregistered node
	// reports Up.
	for key := range mv.short {
		if id, sk, idx, ok := stripeOfKey(key); ok {
			if mf, _ := mv.file(id); mf != nil {
				fs.repairs.enqueue(mf.path, sk, idx, 0)
			}
		}
	}
	observePhase("release")
	rep.Elapsed = time.Since(start)
	fs.obs.evacReport(rep)
	fs.obs.note("evac", nodeID,
		fmt.Sprintf("done: moved=%d deferred=%d forced=%v in %s",
			rep.Moved, rep.Deferred, rep.Forced, rep.Elapsed.Round(time.Millisecond)), 0)
	if err := errors.Join(listErr, flushErr); err != nil {
		return rep, fmt.Errorf("core: evacuate %s: release: %w", nodeID, err)
	}
	return rep, nil
}

// retryRelease runs a release step up to flushRetries times, until it
// succeeds, and returns its last error.
func retryRelease(step func() error) (err error) {
	for i := 0; i < flushRetries; i++ {
		if err = step(); err == nil {
			return nil
		}
		time.Sleep(movePassPause)
	}
	return err
}

// listStripes lists every stripe value src holds, one SCAN page after
// another, so no listing holds the store's lock for longer than a page.
// A key that stays a stripe value throughout is listed once.
func listStripes(src *kvstore.Client) ([]string, error) {
	var keys []string
	for cursor := int64(0); ; {
		page, next, err := src.Scan(cursor, scanPage)
		if err != nil {
			return nil, err
		}
		keys = append(keys, page...)
		if cursor = next; cursor == 0 {
			return keys, nil
		}
	}
}

// evacPasses runs mover passes over the source's data listing until one
// pass resolves every key it listed; it returns ctx's cause when ctx ends
// first (the caller decides between abort and forced release). recheck
// is the post-detach sweep: its first pass re-copies keys already
// resolved, and it ends on a listing with nothing unresolved, not on a
// clean pass — a write that held its client at detach can land after the
// sweep's first listing, and only a re-listing sees it before the flush.
// Keys newly confirmed are tallied into rep and resolved.
func (fs *FileSystem) evacPasses(ctx context.Context, mv *mover, rep *EvacReport, resolved map[string]bool, recheck bool) error {
	final := recheck
	for {
		if ctx.Err() != nil {
			return context.Cause(ctx) // DeadlineExceeded when a trigger moved the deadline up
		}
		todo, err := listStripes(mv.src)
		if err != nil {
			time.Sleep(movePassPause)
			continue
		}
		if !recheck {
			todo = slices.DeleteFunc(todo, func(k string) bool { return resolved[k] })
		}
		if len(todo) == 0 {
			return nil
		}
		recheck = false
		rep.Passes++
		failed := 0
		mv.move(ctx, todo, 0, func(key string, o moveOutcome) {
			switch o {
			case moveFailed, moveLeft:
				// A re-copy that failed leaves the earlier copy possibly
				// stale: the key is unresolved again.
				delete(resolved, key)
				failed++
				return
			case moveMoved:
				if !resolved[key] {
					rep.Moved++
				}
			case moveOrphan:
				if !resolved[key] {
					rep.Orphans++
				}
			}
			resolved[key] = true
		})
		if failed == 0 {
			if final {
				continue
			}
			return nil
		}
		time.Sleep(movePassPause)
	}
}

// --- partial drain (soft pressure) ------------------------------------------

// DrainReport describes what one partial drain did.
type DrainReport struct {
	Node        string        // the drained node
	Moved       int           // keys confirmed elsewhere and deleted at the source
	Skipped     int           // keys the last pass could not move
	BytesBefore int64         // store fill when the drain started
	BytesAfter  int64         // store fill when it stopped
	Target      int64         // fill the drain aimed for
	Passes      int           // listing passes run
	Elapsed     time.Duration // wall time
}

// DrainNode evicts data keys from a victim store until its fill drops to
// targetBytes — the graduated response to soft memory pressure: the tenant
// gets memory back without MemFSS giving up the node. targetBytes <= 0
// takes drainSoftTarget (0.75) of the store's memory cap.
//
// The node is fenced Draining for the duration so replicated writes stop
// adding to it, then unfenced — it stays registered and keeps serving. A
// key leaves for good: it goes to the successor of the slot it fills (the
// node that slot passes to when this one is gone), where reads, writes,
// repair and the census look next once the source answers "absent", and
// nothing moves it back. A stripe later rewritten whole lands on its slot
// again, like any new bytes. Keys the node holds for another node's slot
// (guests) stay. A key moves with copy-then-compare-delete: the value is
// copied out, then deleted at the source only if still byte-identical
// (DELVAL; for a stripe value, header-identical, which is the same test
// because core writes exactly one payload per (generation, write ID) per
// key), so a write racing the drain never loses its update — the key is
// simply skipped and left for the next pressure sweep.
//
// DrainNode lowers the target of a drain already running (reclaim.go), and
// an evacuation answers it too, reporting what left with the node. A drain
// an evacuation preempts ends at its next batch boundary with its partial
// report, as one whose ctx deadline passes.
func (fs *FileSystem) DrainNode(ctx context.Context, nodeID string, targetBytes int64) (*DrainReport, error) {
	run := fs.reclaimWait(ctx, nodeID, reclaimGoal{fill: max(targetBytes, 0), soft: targetBytes <= 0})
	if ev := run.evac; ev != nil {
		return &DrainReport{Node: nodeID, Moved: ev.Moved + ev.Orphans, Skipped: ev.Deferred,
			Passes: ev.Passes, Elapsed: ev.Elapsed}, run.err
	}
	return run.drain, run.err
}

// drain runs the protocol DrainNode describes.
func (fs *FileSystem) drain(ctx context.Context, cli *kvstore.Client, run *reclaimRun) (*DrainReport, error) {
	nodeID := run.node
	rep := &DrainReport{Node: nodeID}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()
	fs.detector.SetDraining(nodeID, true)
	defer fs.detector.SetDraining(nodeID, false)
	mv := fs.newMover(cli, nodeID)
	for freed := true; freed; {
		st, err := cli.Info()
		if err != nil {
			return rep, fmt.Errorf("core: drain %s: %w", nodeID, err)
		}
		if rep.Passes == 0 {
			rep.BytesBefore = st.BytesUsed
		}
		rep.BytesAfter = st.BytesUsed
		fs.reclaimMu.Lock()
		g := run.goal // a trigger may have lowered the fill since the last pass
		fs.reclaimMu.Unlock()
		if g.soft {
			g.merge(reclaimGoal{fill: int64(float64(st.MaxMemory) * drainSoftTarget)})
		}
		if rep.Target = g.fill; g.fill == 0 {
			return rep, fmt.Errorf("core: drain %s: no memory cap and no explicit target", nodeID)
		}
		if st.BytesUsed <= rep.Target {
			break
		}
		if err := ctx.Err(); err != nil {
			// A passed deadline or a preempting evacuation: best effort,
			// pressure relief is not a contract.
			if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
				return rep, nil
			}
			return rep, err
		}
		keys, err := listStripes(cli)
		if err != nil {
			return rep, fmt.Errorf("core: drain %s: %w", nodeID, err)
		}
		rep.Passes++
		rep.Skipped, freed = 0, false
		// Priority-ordered reclamation, cut at the byte budget: low-priority
		// tenants' keys leave the pressured store first, and the pass stops
		// evicting once the fill is down to the target. A pass that frees
		// nothing ends the drain: what is left cannot move right now.
		mv.move(ctx, mv.byPriority(keys), st.BytesUsed-rep.Target, func(key string, o moveOutcome) {
			switch o {
			case moveMoved, moveOrphan:
				rep.Moved++
				freed = true
				if t := fs.tenants(); t != nil {
					t.NoteReclaim(mv.priority(key), 1)
				}
			case moveFailed, moveStays:
				// A destination not Up, a value changed under us, store
				// errors: left for the next pressure sweep. A guest or a
				// stray is not this drain's to move.
				rep.Skipped++
			}
		})
	}
	rep.Elapsed = time.Since(start)
	fs.obs.drainReport(rep)
	fs.obs.note("drain", nodeID,
		fmt.Sprintf("partial drain done: moved=%d passes=%d %d->%d bytes in %s",
			rep.Moved, rep.Passes, rep.BytesBefore, rep.BytesAfter,
			rep.Elapsed.Round(time.Millisecond)), 0)
	return rep, nil
}

// parseDataKey splits "data:<fileID>#<idx>[/s<n>]" into the file ID and
// the shard suffix digits ("" when not erasure-coded).
func parseDataKey(key string) (fileID, shardIdx string, ok bool) {
	body, found := strings.CutPrefix(key, "data:")
	if !found {
		return "", "", false
	}
	if i := strings.LastIndex(body, "/s"); i >= 0 {
		shardIdx = body[i+2:]
		body = body[:i]
	}
	hash := strings.LastIndexByte(body, '#')
	if hash <= 0 {
		return "", "", false
	}
	return body[:hash], shardIdx, true
}

// VerifyFile re-reads every stripe of a file and reports whether all bytes
// are reachable — the payload-reading check behind `memfsctl verify`.
// Being a read, it queues what it finds short for repair; Fsck's census
// does not.
func (fs *FileSystem) VerifyFile(path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, f.layout.Size())
	var off int64
	for off < f.Size() {
		n, err := f.ReadAt(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		if n == 0 {
			break
		}
		off += int64(n)
	}
	if off < f.Size() {
		return fmt.Errorf("%w: %s verified %d of %d bytes", ErrDataLoss, path, off, f.Size())
	}
	return nil
}

// --- pressure monitor --------------------------------------------------------

// Monitor polls victim stores and sets the goals of the graduated pressure
// response of paper §III-A: soft pressure (fill above the store's
// watermark, still under the cap) asks for a partial drain that returns
// memory while the node keeps serving; fill above the cap (the tenant
// shrank it) asks for the full deadline-bounded evacuation at once, as a
// FileSystem.Revoke does when its notice ends. Each victim's run goes in
// its own goroutine (reclaim.go), so one victim's evacuation never holds
// another's drain; a failed run backs the node off with doubling delays,
// and each sweep retries a goal whose backoff has passed. While it runs,
// the monitor logs how every background run ended.
type Monitor struct {
	fs       *FileSystem
	interval time.Duration
	logf     func(format string, args ...any)

	mu      sync.Mutex // guards the loop channels and serializes logf
	stopped chan struct{}
	done    chan struct{}
}

// NewMonitor creates a monitor polling every interval (default 1s).
// logf defaults to log.Printf.
func NewMonitor(fs *FileSystem, interval time.Duration, logf func(string, ...any)) *Monitor {
	if interval <= 0 {
		interval = time.Second
	}
	if logf == nil {
		logf = log.Printf
	}
	return &Monitor{fs: fs, interval: interval, logf: logf}
}

// Start launches the polling loop. It is an error to start twice without
// Stop.
func (m *Monitor) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped != nil {
		return fmt.Errorf("core: monitor already running")
	}
	m.stopped = make(chan struct{})
	m.done = make(chan struct{})
	m.fs.reclaimMu.Lock()
	m.fs.monitor = m
	m.fs.reclaimMu.Unlock()
	go m.loop(m.stopped, m.done)
	return nil
}

// Stop terminates the polling loop and waits for it to exit. Runs the
// monitor started go on; a stopped monitor logs nothing.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stopped, done := m.stopped, m.done
	m.stopped, m.done = nil, nil
	m.mu.Unlock()
	if stopped == nil {
		return
	}
	close(stopped)
	<-done
}

func (m *Monitor) loop(stopped, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stopped:
			return
		case <-ticker.C:
			m.sweep()
		}
	}
}

// sweep reads every victim's fill and sets its goal: leave above the cap,
// a drain to the soft target under pressure. A goal set earlier is
// retried once its backoff has passed, even when the fill no longer asks.
// It logs each run it starts.
func (m *Monitor) sweep() {
	for _, cls := range m.fs.Classes() {
		if !cls.Victim {
			continue
		}
		for _, n := range cls.Nodes {
			var g reclaimGoal
			var st kvstore.Stats
			cli, err := m.fs.conns.client(n.ID)
			if err == nil {
				st, err = cli.Info()
			}
			why := "under memory pressure"
			switch {
			case err != nil:
			case st.MaxMemory > 0 && st.BytesUsed > st.MaxMemory:
				g = reclaimGoal{leave: true, deadline: defaultEvacDeadline}
			case st.Pressure:
				g.soft, why = true, "under soft pressure"
			}
			if run, mine := m.fs.reclaimStart(context.Background(), n.ID, g, true); mine {
				act := "partial drain"
				if run.goal.leave {
					act = "evacuating"
				}
				m.log("memfss: victim %s %s (%d/%d bytes), %s", n.ID, why, st.BytesUsed, st.MaxMemory, act)
			}
		}
	}
}

// report logs how a background run ended (reclaimStart calls it for every
// one while the monitor runs).
func (m *Monitor) report(run *reclaimRun) {
	<-run.done
	switch ev, dr := run.evac, run.drain; {
	case run.err != nil && run.goal.leave:
		m.log("memfss: evacuate %s: %v", run.node, run.err)
	case run.err != nil:
		m.log("memfss: drain %s: %v", run.node, run.err)
	case run.goal.leave:
		m.log("memfss: evacuated %s: moved=%d orphans=%d deferred=%d forced=%v in %s (deadline %s)",
			run.node, ev.Moved, ev.Orphans, ev.Deferred, ev.Forced,
			ev.Elapsed.Round(time.Millisecond), ev.Deadline)
	default:
		m.log("memfss: drained %s: moved=%d skipped=%d, %d -> %d bytes (target %d)",
			run.node, dr.Moved, dr.Skipped, dr.BytesBefore, dr.BytesAfter, dr.Target)
	}
}

// log writes one line while the monitor runs.
func (m *Monitor) log(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped != nil {
		m.logf(format, args...)
	}
}
