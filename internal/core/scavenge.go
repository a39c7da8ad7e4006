package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
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
	// drainListBatch bounds one partial-drain listing (plus the skip set,
	// so skipped keys at the front of the sort order never starve deeper
	// candidates).
	drainListBatch = 256
	// flushRetries re-attempts the release-phase FlushAll beyond the
	// client's own retry budget: by flush time the node is already out of
	// placement, so giving up leaves stale bytes the tenant wants back.
	flushRetries = 5
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
	fs.mu.RLock()
	var found, victim bool
	for i := range fs.classes {
		for _, n := range fs.classes[i].Nodes {
			if n.ID == nodeID {
				found = true
				victim = fs.classes[i].Victim
			}
		}
	}
	fs.mu.RUnlock()
	if !found {
		return fmt.Errorf("%w %q", errUnknownNode, nodeID)
	}
	if !victim {
		return fmt.Errorf("core: node %q is an own node; refusing to evacuate metadata", nodeID)
	}
	return nil
}

// acquireDrain claims the per-node drain slot so concurrent revocations of
// the same node fail fast instead of interleaving fence flips and flushes.
func (fs *FileSystem) acquireDrain(nodeID string) error {
	fs.drainMu.Lock()
	defer fs.drainMu.Unlock()
	if fs.drainBusy[nodeID] {
		return fmt.Errorf("core: node %q is already being drained", nodeID)
	}
	fs.drainBusy[nodeID] = true
	return nil
}

func (fs *FileSystem) releaseDrain(nodeID string) {
	fs.drainMu.Lock()
	delete(fs.drainBusy, nodeID)
	fs.drainMu.Unlock()
}

// claimVictim opens a revocation: it verifies nodeID is a victim node,
// claims its drain slot (the caller releases it) and returns its client.
func (fs *FileSystem) claimVictim(nodeID string) (*kvstore.Client, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	if err := fs.victimNode(nodeID); err != nil {
		return nil, err
	}
	if err := fs.acquireDrain(nodeID); err != nil {
		return nil, err
	}
	cli, err := fs.conns.client(nodeID)
	if err != nil {
		fs.releaseDrain(nodeID)
	}
	return cli, err
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
//     leaves short, and its parked units are re-queued.
//
// When ctx is canceled before detach the evacuation aborts cleanly: the
// fence comes down and the node stays in the deployment. When the deadline
// expires (the tenant is waiting) the node is force-released: unresolved
// keys are counted AtRisk and handed to the repair queue, which restores
// redundancy from the surviving copies or shards.
func (fs *FileSystem) Evacuate(ctx context.Context, nodeID string, opts EvacOptions) (*EvacReport, error) {
	cli, err := fs.claimVictim(nodeID)
	if err != nil {
		return nil, err
	}
	defer fs.releaseDrain(nodeID)
	deadline := opts.Deadline
	if deadline == 0 {
		deadline = defaultEvacDeadline
	}
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
		nodes := make([]NodeSpec, 0, len(c.Nodes))
		for _, n := range c.Nodes {
			if n.ID != nodeID {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) > 0 {
			c.Nodes = nodes
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
	// lost from this store: every unresolved stripe is left short.
	if rep.Forced {
		if keys, err := cli.Keys("data:"); err == nil {
			for _, key := range keys {
				if !resolved[key] {
					rep.Deferred++
					mv.short[key] = true
				}
			}
		}
		rep.AtRisk = rep.Deferred
	}
	var flushErr error
	for i := 0; i < flushRetries; i++ {
		if flushErr = cli.FlushAll(); flushErr == nil {
			break
		}
		time.Sleep(movePassPause)
	}
	fs.conns.retire(cli)
	// No longer a placement target: forget its history — and with it the
	// fence — so health snapshots and write-skip decisions stop
	// mentioning it.
	fs.detector.Unregister(nodeID)
	// Its slots have passed on. The stripes left short — another slot
	// re-seated, or a key unresolved — are the repair queue's, and so are
	// units parked on the node: no slot names it any more.
	for key := range mv.short {
		if id, sk, idx, ok := stripeOfKey(key); ok {
			if mf, _ := mv.file(id); mf != nil {
				fs.enqueueRepair(mf.path, sk, idx, 0)
			}
		}
	}
	if fs.repairs != nil {
		fs.repairs.unparkReady()
		fs.repairs.kick()
	}
	observePhase("release")
	rep.Elapsed = time.Since(start)
	fs.obs.evacReport(rep)
	fs.obs.note("evac", nodeID,
		fmt.Sprintf("done: moved=%d deferred=%d forced=%v in %s",
			rep.Moved, rep.Deferred, rep.Forced, rep.Elapsed.Round(time.Millisecond)), 0)
	if flushErr != nil {
		return rep, fmt.Errorf("core: evacuate %s: flush: %w", nodeID, flushErr)
	}
	return rep, nil
}

// evacPasses runs mover passes over the source's data listing until one
// pass resolves every key it listed; it returns ctx's error when ctx ends
// first (the caller decides between abort and forced release). recheck
// is the post-detach sweep: its first pass re-copies keys already
// resolved, and it ends on a listing with nothing unresolved, not on a
// clean pass — a write that held its client at detach can land after the
// sweep's first listing, and only a re-listing sees it before the flush.
// Keys newly confirmed are tallied into rep and resolved.
func (fs *FileSystem) evacPasses(ctx context.Context, mv *mover, rep *EvacReport, resolved map[string]bool, recheck bool) error {
	final := recheck
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, err := mv.src.Keys("data:")
		if err != nil {
			time.Sleep(movePassPause)
			continue
		}
		todo := keys
		if !recheck {
			todo = unresolvedKeys(keys, resolved)
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

// unresolvedKeys filters a listing down to the keys not yet resolved.
func unresolvedKeys(keys []string, resolved map[string]bool) []string {
	out := keys[:0:0]
	for _, k := range keys {
		if !resolved[k] {
			out = append(out, k)
		}
	}
	return out
}

// --- partial drain (soft pressure) ------------------------------------------

// DrainReport describes what one partial drain did.
type DrainReport struct {
	Node        string        // the drained node
	Moved       int           // keys confirmed elsewhere and deleted at the source
	Skipped     int           // keys that could not move this drain
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
func (fs *FileSystem) DrainNode(ctx context.Context, nodeID string, targetBytes int64) (*DrainReport, error) {
	cli, err := fs.claimVictim(nodeID)
	if err != nil {
		return nil, err
	}
	defer fs.releaseDrain(nodeID)
	st, err := cli.Info()
	if err != nil {
		return nil, fmt.Errorf("core: drain %s: %w", nodeID, err)
	}
	target := targetBytes
	if target <= 0 {
		if st.MaxMemory <= 0 {
			return nil, fmt.Errorf("core: drain %s: no memory cap and no explicit target", nodeID)
		}
		target = int64(float64(st.MaxMemory) * drainSoftTarget)
	}
	rep := &DrainReport{
		Node: nodeID, BytesBefore: st.BytesUsed, BytesAfter: st.BytesUsed, Target: target,
	}
	start := time.Now()
	fs.detector.SetDraining(nodeID, true)
	defer fs.detector.SetDraining(nodeID, false)
	skipped := make(map[string]bool)
	// stamp closes the report on every way out.
	stamp := func(err error) (*DrainReport, error) {
		rep.Skipped = len(skipped)
		rep.Elapsed = time.Since(start)
		return rep, err
	}
	mv := fs.newMover(cli, nodeID)
	for {
		st, err := cli.Info()
		if err != nil {
			return stamp(fmt.Errorf("core: drain %s: %w", nodeID, err))
		}
		rep.BytesAfter = st.BytesUsed
		if st.BytesUsed <= target {
			break
		}
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return stamp(nil) // best effort: pressure relief, not a contract
			}
			return stamp(err)
		}
		// The skip set grows the listing bound so keys stuck at the front
		// of the sort order never starve deeper candidates.
		keys, err := cli.KeysN("data:", drainListBatch+len(skipped))
		if err != nil {
			return stamp(fmt.Errorf("core: drain %s: %w", nodeID, err))
		}
		todo := unresolvedKeys(keys, skipped)
		if len(todo) == 0 {
			break // everything left is unmovable right now
		}
		rep.Passes++
		// Priority-ordered reclamation, cut at the byte budget: low-priority
		// tenants' keys leave the pressured store first, and the pass stops
		// evicting once the fill is down to the target.
		mv.move(ctx, mv.byPriority(todo), st.BytesUsed-target, func(key string, o moveOutcome) {
			switch o {
			case moveMoved, moveOrphan:
				rep.Moved++
				if t := fs.tenants(); t != nil {
					t.NoteReclaim(mv.priority(key), 1)
				}
			case moveFailed, moveStays:
				// A destination not Up, a value changed under us, store
				// errors: left for the next pressure sweep. A guest or a
				// stray is not this drain's to move.
				skipped[key] = true
			}
		})
	}
	stamp(nil)
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

// Monitor polls victim stores and mounts the graduated pressure response
// of paper §III-A: soft pressure (fill above the store's watermark, still
// under the cap) triggers a partial drain that returns memory while the
// node keeps serving; hard revocation (an explicit Revoke, or fill above
// the cap after the tenant shrank it) triggers the full deadline-bounded
// evacuation. Failed revocations back off per node with doubling delays.
type Monitor struct {
	fs       *FileSystem
	interval time.Duration
	logf     func(format string, args ...any)

	mu           sync.Mutex
	stopped      chan struct{}
	done         chan struct{}
	revoked      map[string]bool
	backoff      map[string]time.Duration
	backoffUntil map[string]time.Time
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
	return &Monitor{
		fs: fs, interval: interval, logf: logf,
		revoked:      make(map[string]bool),
		backoff:      make(map[string]time.Duration),
		backoffUntil: make(map[string]time.Time),
	}
}

// Revoke marks a node for hard revocation: the next sweep runs the full
// deadline-bounded evacuation regardless of the store's fill level — the
// "tenant wants its memory back now" signal. Any failure backoff on the
// node is cleared so the operator signal acts immediately.
func (m *Monitor) Revoke(nodeID string) {
	m.mu.Lock()
	m.revoked[nodeID] = true
	delete(m.backoffUntil, nodeID)
	m.mu.Unlock()
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
	go m.loop(m.stopped, m.done)
	return nil
}

// Stop terminates the polling loop and waits for it to exit.
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

// sweep applies the graduated response to every victim node.
func (m *Monitor) sweep() {
	now := time.Now()
	for _, cls := range m.fs.Classes() {
		if !cls.Victim {
			continue
		}
		for _, n := range cls.Nodes {
			m.sweepNode(now, n.ID)
		}
	}
}

func (m *Monitor) sweepNode(now time.Time, nodeID string) {
	m.mu.Lock()
	wait := m.backoffUntil[nodeID]
	revoked := m.revoked[nodeID]
	m.mu.Unlock()
	if now.Before(wait) {
		return
	}
	cli, err := m.fs.conns.client(nodeID)
	if err != nil {
		return
	}
	st, err := cli.Info()
	if err != nil {
		return
	}
	overCap := st.MaxMemory > 0 && st.BytesUsed > st.MaxMemory
	switch {
	case revoked || overCap:
		m.logf("memfss: victim %s under memory pressure (%d/%d bytes), evacuating",
			nodeID, st.BytesUsed, st.MaxMemory)
		rep, err := m.fs.Evacuate(context.Background(), nodeID, EvacOptions{})
		if err != nil {
			m.logf("memfss: evacuate %s: %v", nodeID, err)
			m.fail(nodeID)
			return
		}
		m.clear(nodeID)
		m.logf("memfss: evacuated %s: moved=%d orphans=%d deferred=%d forced=%v in %s (deadline %s)",
			nodeID, rep.Moved, rep.Orphans, rep.Deferred, rep.Forced,
			rep.Elapsed.Round(time.Millisecond), rep.Deadline)
	case st.Pressure:
		m.logf("memfss: victim %s under soft pressure (%d/%d bytes), partial drain",
			nodeID, st.BytesUsed, st.MaxMemory)
		rep, err := m.fs.DrainNode(context.Background(), nodeID, 0)
		if err != nil {
			m.logf("memfss: drain %s: %v", nodeID, err)
			m.fail(nodeID)
			return
		}
		m.clear(nodeID)
		m.logf("memfss: drained %s: moved=%d skipped=%d, %d -> %d bytes (target %d)",
			nodeID, rep.Moved, rep.Skipped, rep.BytesBefore, rep.BytesAfter, rep.Target)
	}
}

// fail records a failed revocation attempt, doubling the node's backoff.
func (m *Monitor) fail(nodeID string) {
	base := m.fs.cfg.Evac.Backoff
	if base <= 0 {
		base = defaultEvacBackoff
	}
	maxB := m.fs.cfg.Evac.MaxBackoff
	if maxB <= 0 {
		maxB = defaultEvacMaxBackoff
	}
	m.mu.Lock()
	b := m.backoff[nodeID]
	if b <= 0 {
		b = base
	} else {
		b = min(b*2, maxB)
	}
	m.backoff[nodeID] = b
	m.backoffUntil[nodeID] = time.Now().Add(b)
	m.mu.Unlock()
}

// clear resets a node's revocation bookkeeping after success.
func (m *Monitor) clear(nodeID string) {
	m.mu.Lock()
	delete(m.revoked, nodeID)
	delete(m.backoff, nodeID)
	delete(m.backoffUntil, nodeID)
	m.mu.Unlock()
}
