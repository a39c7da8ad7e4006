package core

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfss/internal/health"
	"memfss/internal/obs"
	"memfss/internal/obs/trace"
)

// This file implements the targeted repair queue: instead of waiting for
// an operator-driven full-namespace Scrub, the data path enqueues the
// exact path#stripe units it *knows* are under-replicated (degraded
// writes, degraded reads), and a background repairer restores their
// redundancy at once — Hydra-style targeted re-replication. A unit whose
// fix cannot finish (a node that does not answer or is distrusted,
// unreachable metadata, a stripe past the committed size) is dropped: its
// stripe stays owed, and the queue's only retry is a census pass over the
// whole namespace (census.go), started when one can make progress.

// repairUnit names one stripe needing a redundancy check.
type repairUnit struct {
	path string
	sk   string // raw stripe key ("<fileID>#<idx>")
	idx  int64
	// enqueuedAt is when the unit entered the queue; the interval to its
	// stripe's restored redundancy is the time-to-restored-redundancy
	// metric.
	enqueuedAt time.Time
	// src links back to the trace whose degraded operation reported the
	// stripe, so the flight recorder's enqueue->restored pair names the
	// operation that witnessed the damage.
	src trace.ID
}

func (u repairUnit) key() string { return u.path + "#" + u.sk }

// RepairStats snapshots the repair queue's activity.
type RepairStats struct {
	// Enqueued counts units accepted into the queue.
	Enqueued int64
	// Repaired counts units that restored at least one copy or shard;
	// Intact, units whose stripe needed nothing when inspected.
	Repaired int64
	Intact   int64
	// Restored counts individual replica copies / shards rewritten, by
	// units and census passes alike.
	Restored int64
	// Unrepairable counts units whose stripe has no surviving source.
	Unrepairable int64
	// Overflows counts stripes a full queue turned away; Passes counts the
	// census passes the queue ran.
	Overflows int64
	Passes    int64
	// Queued / Owed / InFlight describe the current backlog: runnable
	// units, stripes whose fix was blocked and which wait for a census
	// pass, and repairs executing right now.
	Queued   int
	Owed     int
	InFlight int
}

// repairWorkers bounds parallel stripe repairs; repairPace separates two
// repair starts, keeping repair traffic from competing with foreground I/O.
const (
	repairWorkers = 2
	repairPace    = 10 * time.Millisecond
)

// A census pass starts no sooner than passGap, and no sooner than
// passSpacing times its predecessor's duration, after that pass ended: at
// most a tenth of the queue's time goes to passes, whatever the namespace
// size. The loop looks for a due pass every passGap/5, so a node's return
// is acted on within that.
const (
	passGap     = 500 * time.Millisecond
	passSpacing = 9
)

// pastEOF is fixOutcome.blocked for a stripe beyond the committed size.
const pastEOF = "stripe past the committed size"

type repairQueue struct {
	fs  *FileSystem
	pol RepairPolicy

	mu       sync.Mutex
	seen     map[string]bool       // dedup over queued units
	held     map[string]int        // raw stripe key -> units queued or in flight, +1 while owed
	owed     map[string]repairUnit // raw stripe key -> the latest unit a blocked fix dropped
	active   []repairUnit
	inFlight int
	// overflow is when a full queue last turned a stripe away (zero when
	// none has since a clean pass): every stripe is held until a pass
	// begun after it defers nothing.
	overflow time.Time
	// A pass is due when a stripe became owed for a reason no node's
	// return signals (due), or a node the last pass or a dropped unit could
	// not reach (waitOn: node -> when that work began) is gone or has come
	// back Up since; one that stayed Up throughout would fail it again.
	due    bool
	waitOn map[string]time.Time
	// commits is when each file committed while a fix was queued or in
	// flight last did so, for that fix's drop.
	commits map[string]time.Time
	// passBeg and passEnd bracket the last pass (a running one when
	// passBeg is the later).
	passBeg, passEnd time.Time
	// busy is "anything held, or an overflow", kept in step under mu, so
	// readers of an idle queue skip the lock.
	busy atomic.Bool

	kickCh chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup

	// Activity counters live on the FileSystem's registry, so RepairStats
	// and /metrics read the same numbers.
	enqueued, repaired, intact, restored, unrepairable *obs.Counter
	overflows, passes                                  *obs.Counter
	// waitHist is time-to-restored-redundancy: enqueue to a successful
	// repair or the pass that released the stripe, on the slow
	// (1ms-10min) bucket scale.
	waitHist *obs.Histogram
}

// newRepairQueue builds the queue and starts its loop.
func newRepairQueue(fs *FileSystem, pol RepairPolicy) *repairQueue {
	if pol.QueueCap == 0 {
		pol.QueueCap = 1024
	}
	reg := fs.obs.reg
	const unitsHelp = "Repair-queue units by final outcome."
	q := &repairQueue{
		fs:      fs,
		pol:     pol,
		seen:    make(map[string]bool),
		held:    make(map[string]int),
		owed:    make(map[string]repairUnit),
		waitOn:  make(map[string]time.Time),
		commits: make(map[string]time.Time),
		kickCh:  make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		enqueued: reg.Counter("memfss_repair_enqueued_total",
			"Units accepted into the targeted repair queue.", nil),
		repaired:     reg.Counter("memfss_repair_units_total", unitsHelp, obs.L("outcome", "repaired")),
		intact:       reg.Counter("memfss_repair_units_total", unitsHelp, obs.L("outcome", "intact")),
		unrepairable: reg.Counter("memfss_repair_units_total", unitsHelp, obs.L("outcome", "unrepairable")),
		restored: reg.Counter("memfss_repair_restored_total",
			"Replica copies or shards rewritten by the repair queue and its census passes.", nil),
		overflows: reg.Counter("memfss_repair_overflows_total",
			"Stripes a full queue turned away (each holds every stripe until a census pass defers nothing).", nil),
		passes: reg.Counter("memfss_repair_census_passes_total",
			"Census passes the repair queue ran to retry its owed stripes.", nil),
	}
	q.waitHist = reg.Histogram("memfss_repair_wait_seconds",
		"Time from enqueue to restored redundancy.", nil, obs.DefSlowBuckets)
	depth := func(state string, n func() int) {
		reg.Gauge("memfss_repair_queue_depth", "Current repair backlog by state.", obs.L("state", state), func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(n())
		})
	}
	depth("queued", func() int { return len(q.active) })
	depth("owed", func() int { return len(q.owed) })
	depth("in_flight", func() int { return q.inFlight })
	q.wg.Add(1)
	go q.loop()
	return q
}

// enqueue records that path's stripe sk, which src saw degraded, needs a
// redundancy check (a no-op when the queue is disabled), and kicks the
// loop. Duplicates of queued units are dropped. A full queue overflows
// instead of growing: every stripe is held, and a pass is due. Units
// queued, in flight and owed all count against the cap, so a blocked fix
// always has room to leave its stripe owed.
func (q *repairQueue) enqueue(path, sk string, idx int64, src trace.ID) {
	if q == nil {
		return
	}
	u := repairUnit{path: path, sk: sk, idx: idx, enqueuedAt: time.Now(), src: src}
	q.mu.Lock()
	if q.seen[u.key()] {
		q.mu.Unlock()
		return
	}
	note := "enqueued " + u.key()
	if len(q.seen)+q.inFlight+len(q.owed) >= q.pol.QueueCap {
		q.overflow, q.due = time.Now(), true
		q.overflows.Add(1)
		q.busy.Store(true)
		note = "overflow: " + u.key() + " turned away, every stripe held until a clean census pass"
	} else {
		q.push(u)
		q.enqueued.Add(1)
	}
	q.mu.Unlock()
	q.fs.obs.note("repair", "", note, src)
	select {
	case q.kickCh <- struct{}{}:
	default:
	}
}

// push queues u unless a unit of its stripe is queued already. Called with
// mu held.
func (q *repairQueue) push(u repairUnit) {
	if !q.seen[u.key()] {
		q.seen[u.key()] = true
		q.hold(u.sk, 1)
		q.active = append(q.active, u)
	}
}

func (q *repairQueue) doneOne(u repairUnit) {
	q.mu.Lock()
	if q.inFlight--; q.inFlight == 0 && len(q.active) == 0 { // no fix can be racing a commit
		clear(q.commits)
	}
	q.hold(u.sk, -1)
	q.mu.Unlock()
}

// hold counts a unit of stripe sk in (+1) or out (-1) of the queue's
// care. Called with mu held.
func (q *repairQueue) hold(sk string, d int) {
	if q.held[sk] += d; q.held[sk] == 0 {
		delete(q.held, sk)
	}
	q.busy.Store(len(q.held) > 0 || !q.overflow.IsZero())
}

// holds reports whether the queue has stripe sk in its care — queued, in
// flight or owed — or has overflowed, which may leave any stripe behind.
// Such a stripe's copies may disagree, so reads gather every slot and
// take the newest write (readSpan). An idle (or disabled) queue answers
// without a lock.
func (q *repairQueue) holds(sk string) bool {
	if q == nil || !q.busy.Load() {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.overflow.IsZero() || q.held[sk] > 0
}

// drop leaves a blocked unit's stripe owed to a census pass, keeping the
// latest unit that dropped it: a pass begun before that unit's enqueue may
// have looked at the stripe before its damage, so only a later one
// releases it. The pass is due at once unless the block is a node, whose
// return makes it due, or the stripe lies past its file's committed size,
// which its commit re-queues (committed).
func (q *repairQueue) drop(u repairUnit, out fixOutcome) {
	q.mu.Lock()
	defer q.mu.Unlock()
	id, _, _ := strings.Cut(u.sk, "#")
	commit, known := q.commits[id]
	if out.blocked == pastEOF && u.enqueuedAt.Before(commit) {
		u.enqueuedAt = time.Now() // committed since it was queued: fix it by the new size
		q.push(u)
		return
	}
	o, owed := q.owed[u.sk]
	if !owed {
		q.hold(u.sk, 1)
	}
	if !owed || u.enqueuedAt.After(o.enqueuedAt) {
		q.owed[u.sk] = u
	}
	q.due = q.due || out.blocked != "" && (out.blocked != pastEOF || known) // still past EOF after a commit
	q.wait(out.pending, u.enqueuedAt)
}

// wait records that work begun at start could not reach nodes (mu held).
func (q *repairQueue) wait(nodes []string, start time.Time) {
	for _, node := range nodes {
		if at, ok := q.waitOn[node]; !ok || start.Before(at) {
			q.waitOn[node] = start
		}
	}
}

// committed is told that file id's size was committed (a writer's Sync, a
// Truncate). Its owed stripes go back on the queue, so one owed as past
// the old size is fixed by the new one; as a fix queued or in flight may
// have read the old size, the commit is kept for its drop.
func (q *repairQueue) committed(id string) {
	if q == nil || !q.busy.Load() {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for sk, u := range q.owed {
		if strings.HasPrefix(sk, id+"#") {
			delete(q.owed, sk)
			q.push(u)
			q.hold(sk, -1)
		}
	}
	if q.inFlight > 0 || len(q.active) > 0 {
		q.commits[id] = time.Now()
	}
}

// wantsPass reports whether a census pass is due. Called with mu held.
func (q *repairQueue) wantsPass() bool {
	if q.due {
		return true
	}
	for node, at := range q.waitOn {
		if h, ok := q.fs.detector.Health(node); !ok || h.State == health.Up && h.Since.After(at) {
			return true
		}
	}
	return false
}

// pass runs one census over the whole namespace when one is due and its
// pace allows, reporting whether it ran, and settles the owed stripes by
// it. A pass that fails leaves the next one due.
func (q *repairQueue) pass() bool {
	q.mu.Lock()
	gap := max(passGap, passSpacing*q.passEnd.Sub(q.passBeg))
	if !q.wantsPass() || time.Since(q.passEnd) < gap {
		q.mu.Unlock()
		return false
	}
	q.due, q.passBeg = false, time.Now()
	clear(q.waitOn)
	q.mu.Unlock()
	q.passes.Add(1)
	rep, err := q.fs.census("/", true)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.passEnd = time.Now()
	took := q.passEnd.Sub(q.passBeg).Round(time.Millisecond)
	if err != nil {
		q.due = true
		q.fs.obs.note("repair", "", fmt.Sprintf("census pass failed after %s: %v", took, err), 0)
		return true
	}
	q.restored.Add(int64(len(rep.Restored)))
	q.fs.obs.note("repair", "", fmt.Sprintf("census pass in %s: %d restored, %d owed released, %d deferred",
		took, len(rep.Restored), q.settle(q.passBeg, rep), len(rep.Deferred)), 0)
	return true
}

// settle closes a census pass begun at beg that reported rep, counting
// the stripes it releases: each owed one whose latest unit was enqueued
// before beg, whose stripe rep did not defer and whose file it read. The
// nodes of deferred stripes are what the next pass waits for; a file it
// could not read makes that pass due. An overflow clears when the pass
// began after it, deferred nothing and read every file. Called with mu
// held.
func (q *repairQueue) settle(beg time.Time, rep *CensusReport) int {
	for _, nodes := range rep.blocked {
		q.wait(nodes, beg)
	}
	q.due = q.due || len(rep.unread) > 0
	released := 0
	for sk, u := range q.owed {
		if _, deferred := rep.blocked[sk]; deferred || rep.unread[u.path] || !u.enqueuedAt.Before(beg) {
			continue
		}
		delete(q.owed, sk)
		q.hold(sk, -1)
		q.waitHist.Observe(time.Since(u.enqueuedAt))
		released++
	}
	if beg.After(q.overflow) && len(rep.blocked) == 0 && len(rep.unread) == 0 {
		q.overflow = time.Time{}
		q.busy.Store(len(q.held) > 0)
	}
	return released
}

// loop is the dispatcher: run a census pass when one is due and paced,
// else pop runnable units and repair them on bounded worker goroutines
// with pacing between dispatches, and otherwise sleep until a kick or the
// tick.
func (q *repairQueue) loop() {
	defer q.wg.Done()
	tick := time.NewTicker(passGap / 5)
	defer tick.Stop()
	sem := make(chan struct{}, repairWorkers)
	for {
		if q.pass() {
			continue
		}
		q.mu.Lock()
		u, ok := repairUnit{}, len(q.active) > 0
		if ok {
			u, q.active = q.active[0], q.active[1:]
			delete(q.seen, u.key())
			q.inFlight++
		}
		q.mu.Unlock()
		if !ok {
			select {
			case <-q.stopCh:
				return
			case <-q.kickCh:
			case <-tick.C:
			}
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-q.stopCh:
			q.doneOne(u)
			return
		}
		q.wg.Add(1)
		go func(u repairUnit) {
			defer q.wg.Done()
			defer func() { <-sem; q.doneOne(u) }()
			q.repairOne(u)
		}(u)
		select {
		case <-q.stopCh:
			return
		case <-time.After(repairPace):
		}
	}
}

func (q *repairQueue) repairOne(u repairUnit) {
	out := q.fs.fixStripe(u)
	q.restored.Add(int64(len(out.restored)))
	switch {
	case out.reason != "":
		q.unrepairable.Add(1)
		q.fs.obs.note("repair", "", "unrepairable "+u.key()+": "+out.reason, u.src)
	case out.blocked != "" || len(out.pending) > 0:
		q.drop(u, out)
		why := cmp.Or(out.blocked, fmt.Sprintf("waiting on %v", out.pending))
		q.fs.obs.note("repair", "", fmt.Sprintf("dropped %s (%s): owed to a census pass", u.key(), why), u.src)
	default:
		wait := time.Since(u.enqueuedAt)
		q.waitHist.Observe(wait)
		if len(out.restored) == 0 {
			q.intact.Add(1)
			return
		}
		q.repaired.Add(1)
		q.fs.obs.note("repair", "", fmt.Sprintf("restored %s (+%d copies %v, wait %s)",
			u.key(), len(out.restored), out.restored, wait.Round(time.Millisecond)), u.src)
	}
}

// --- FileSystem surface ----------------------------------------------------

// RepairStats snapshots the repair queue (zero value when disabled).
func (fs *FileSystem) RepairStats() RepairStats {
	q := fs.repairs
	if q == nil {
		return RepairStats{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return RepairStats{
		Enqueued:     q.enqueued.Value(),
		Repaired:     q.repaired.Value(),
		Intact:       q.intact.Value(),
		Restored:     q.restored.Value(),
		Unrepairable: q.unrepairable.Value(),
		Overflows:    q.overflows.Value(),
		Passes:       q.passes.Value(),
		Queued:       len(q.active),
		Owed:         len(q.owed),
		InFlight:     q.inFlight,
	}
}

// WaitRepairIdle polls until the repair queue is idle — nothing queued,
// in flight or passing, and no pass due — or timeout elapses, reporting
// whether it got there: the test and benchmark hook behind
// time-to-full-redundancy measurements. Stripes owed only on nodes that
// have not returned do not count: no pass can restore them until one
// does. A disabled queue is always idle.
func (fs *FileSystem) WaitRepairIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for q := fs.repairs; q != nil; time.Sleep(5 * time.Millisecond) {
		q.mu.Lock()
		idle := len(q.active) == 0 && q.inFlight == 0 && !q.passBeg.After(q.passEnd) && !q.wantsPass()
		q.mu.Unlock()
		if idle || time.Now().After(deadline) {
			return idle
		}
	}
	return true
}
