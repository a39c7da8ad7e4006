package core

import (
	"fmt"
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
// writes, deep-probe misses), and a background repairer restores their
// redundancy as soon as the missing placement targets are healthy again —
// Hydra-style targeted re-replication. The queue is an optimization, not
// a correctness mechanism: on overflow it schedules one full Scrub as the
// catch-all, and dropping a unit only delays a repair the next Scrub
// performs anyway.

// repairUnit names one stripe needing a redundancy check.
type repairUnit struct {
	path string
	sk   string // raw stripe key ("<fileID>#<idx>")
	idx  int64
	// enqueuedAt is when the unit first entered the queue; the interval to
	// its successful repair is the time-to-restored-redundancy metric.
	enqueuedAt time.Time
	// src links back to the trace whose degraded operation reported the
	// stripe, so the flight recorder's enqueue->restored pair names the
	// operation that witnessed the damage.
	src trace.ID
	// commitRetries counts "<commit>" reruns: a unit can outrun its own
	// writer (stripes land and enqueue before Close commits the new file
	// size), in which case the stripe looks out of range and must be
	// revisited after the commit settles rather than dropped.
	commitRetries int
}

func (u repairUnit) key() string { return u.path + "#" + u.sk }

// RepairStats snapshots the repair queue's activity.
type RepairStats struct {
	// Enqueued counts units accepted into the queue.
	Enqueued int64
	// Repaired counts units whose redundancy is fully restored (or was
	// already intact when inspected).
	Repaired int64
	// Restored counts individual replica copies / shards rewritten.
	Restored int64
	// Unrepairable counts units dropped with no surviving source.
	Unrepairable int64
	// Overflows counts enqueues rejected by a full queue; FullScrubs
	// counts the catch-all Scrub passes those triggered.
	Overflows  int64
	FullScrubs int64
	// Queued / Parked / InFlight describe the current backlog: runnable
	// units, units waiting for a Down/Suspect target to recover, and
	// repairs executing right now.
	Queued   int
	Parked   int
	InFlight int
}

// repairWaitMeta and repairWaitCommit are sentinel waitFor targets for
// parked units blocked on something without a health signal: unreachable
// metadata, or a writer's size commit the unit outran. Both retry on the
// rescan timer rather than a node-recovery event.
const (
	repairWaitMeta   = "<meta>"
	repairWaitCommit = "<commit>"
)

// maxCommitRetries bounds commit-settle reruns: by the third rescan the
// writer's Close has either landed (the unit repairs normally) or the
// stripe genuinely sits beyond the file's size (truncated) and absence
// is the correct state.
const maxCommitRetries = 3

// rescanInterval bounds how long a retryable parked unit waits before
// being retried even without a detector Up event (the event channel is
// best-effort).
const rescanInterval = 500 * time.Millisecond

// repairWorkers bounds parallel stripe repairs; repairPace separates two
// repair starts, keeping repair traffic from competing with foreground I/O.
const (
	repairWorkers = 2
	repairPace    = 10 * time.Millisecond
)

// parkedUnit is a repair blocked on unavailable targets; waitFor names
// them so the queue retries only once they recover (or leave the cluster)
// instead of banging on nodes the detector still calls Down.
type parkedUnit struct {
	u       repairUnit
	waitFor []string
}

type repairQueue struct {
	fs  *FileSystem
	pol RepairPolicy

	mu        sync.Mutex
	seen      map[string]bool // dedup over active+parked units
	held      map[string]int  // raw stripe key -> units queued, parked or in flight
	active    []repairUnit
	parked    []parkedUnit
	inFlight  int
	overflow  bool // queue overflowed: full Scrub owed until one runs clean
	scrubDue  bool // a full Scrub should run at the next idle moment
	scrubbing bool
	// busy is "anything held, or a Scrub owed", kept in step with held and
	// overflow under mu, so readers of an idle queue skip the lock.
	busy atomic.Bool

	kickCh    chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
	cancelSub func()

	// Activity counters live on the FileSystem's registry, so RepairStats
	// and /metrics read the same numbers.
	enqueued, repaired, restored, unrepairable *obs.Counter
	overflows, fullScrubs                      *obs.Counter
	// waitHist is time-to-restored-redundancy: enqueue to successful
	// repair, on the slow (1ms-10min) bucket scale.
	waitHist *obs.Histogram
}

func newRepairQueue(fs *FileSystem, pol RepairPolicy) *repairQueue {
	if pol.QueueCap == 0 {
		pol.QueueCap = 1024
	}
	reg := fs.obs.reg
	const unitsHelp = "Repair-queue units by final outcome."
	q := &repairQueue{
		fs:     fs,
		pol:    pol,
		seen:   make(map[string]bool),
		held:   make(map[string]int),
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		enqueued: reg.Counter("memfss_repair_enqueued_total",
			"Units accepted into the targeted repair queue.", nil),
		repaired:     reg.Counter("memfss_repair_units_total", unitsHelp, obs.L("outcome", "repaired")),
		unrepairable: reg.Counter("memfss_repair_units_total", unitsHelp, obs.L("outcome", "unrepairable")),
		restored: reg.Counter("memfss_repair_restored_total",
			"Replica copies or shards rewritten by the repair queue.", nil),
		overflows: reg.Counter("memfss_repair_overflows_total",
			"Enqueues rejected by a full queue (each arms a catch-all Scrub).", nil),
		fullScrubs: reg.Counter("memfss_repair_full_scrubs_total",
			"Catch-all full Scrub passes triggered by queue overflow.", nil),
	}
	q.waitHist = reg.Histogram("memfss_repair_wait_seconds",
		"Time from enqueue to restored redundancy.", nil, obs.DefSlowBuckets)
	const depthHelp = "Current repair backlog by state."
	reg.Gauge("memfss_repair_queue_depth", depthHelp, obs.L("state", "queued"), func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return float64(len(q.active))
	})
	reg.Gauge("memfss_repair_queue_depth", depthHelp, obs.L("state", "parked"), func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return float64(len(q.parked))
	})
	reg.Gauge("memfss_repair_queue_depth", depthHelp, obs.L("state", "in_flight"), func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return float64(q.inFlight)
	})
	return q
}

func (q *repairQueue) start() {
	ch, cancel := q.fs.detector.Subscribe(64)
	q.cancelSub = cancel
	q.wg.Add(2)
	go q.watch(ch)
	go q.loop()
}

func (q *repairQueue) stop() {
	close(q.stopCh)
	q.cancelSub()
	q.wg.Wait()
}

// kick nudges the dispatcher without blocking.
func (q *repairQueue) kick() {
	select {
	case q.kickCh <- struct{}{}:
	default:
	}
}

// enqueue records that path's stripe sk needs a redundancy check.
// Duplicates of units already queued or parked are dropped; a full queue
// trips the overflow path (one full Scrub owed) instead of growing.
func (q *repairQueue) enqueue(path, sk string, idx int64, src trace.ID) {
	u := repairUnit{path: path, sk: sk, idx: idx, enqueuedAt: time.Now(), src: src}
	q.mu.Lock()
	if q.seen[u.key()] {
		q.mu.Unlock()
		return
	}
	if len(q.seen) >= q.pol.QueueCap {
		q.overflow = true
		q.scrubDue = true
		q.overflows.Add(1)
		q.busy.Store(true)
		q.mu.Unlock()
		q.fs.obs.note("repair", "", "overflow: "+u.key()+" dropped, full scrub owed", src)
		q.kick()
		return
	}
	q.seen[u.key()] = true
	q.hold(u.sk, 1)
	q.active = append(q.active, u)
	q.enqueued.Add(1)
	q.mu.Unlock()
	q.fs.obs.note("repair", "", "enqueued "+u.key(), src)
	q.kick()
}

// watch reacts to detector transitions: any node coming back Up makes the
// parked units worth retrying (and re-arms the catch-all Scrub if the
// queue had overflowed while that node was gone).
func (q *repairQueue) watch(ch <-chan health.Event) {
	defer q.wg.Done()
	for {
		select {
		case <-q.stopCh:
			return
		case ev := <-ch:
			if ev.To == health.Up {
				q.mu.Lock()
				if q.overflow {
					q.scrubDue = true
				}
				q.mu.Unlock()
				q.unparkReady()
			}
			q.kick()
		}
	}
}

// ready reports whether a parked unit is worth retrying: a target it
// waits for is Up again, was evacuated (an unregistered node reports Up,
// and no slot names it any more), or is the metadata sentinel, which has
// no health signal and is retried on the rescan timer. One recovered
// target is enough: its slots can be restored while another stays Down,
// and the retry parks the unit again on the rest.
func (q *repairQueue) ready(p parkedUnit) bool {
	for _, node := range p.waitFor {
		if node == repairWaitMeta || node == repairWaitCommit || q.fs.nodeState(node) == health.Up {
			return true
		}
	}
	return false
}

// unparkReady moves parked units a blocker of which has cleared back to
// the runnable list; units waiting only on Down nodes stay parked.
func (q *repairQueue) unparkReady() {
	q.mu.Lock()
	var still []parkedUnit
	moved := false
	for _, p := range q.parked {
		if q.ready(p) {
			q.active = append(q.active, p.u)
			moved = true
		} else {
			still = append(still, p)
		}
	}
	q.parked = still
	q.mu.Unlock()
	if moved {
		q.kick()
	}
}

func (q *repairQueue) pop() (repairUnit, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.active) == 0 {
		return repairUnit{}, false
	}
	u := q.active[0]
	q.active = q.active[1:]
	delete(q.seen, u.key())
	q.inFlight++
	return u, true
}

func (q *repairQueue) doneOne(u repairUnit) {
	q.mu.Lock()
	q.inFlight--
	q.hold(u.sk, -1)
	q.mu.Unlock()
}

// hold counts a unit of stripe sk in (+1) or out (-1) of the queue's
// care. Called with mu held.
func (q *repairQueue) hold(sk string, d int) {
	if q.held[sk] += d; q.held[sk] == 0 {
		delete(q.held, sk)
	}
	q.busy.Store(len(q.held) > 0 || q.overflow)
}

// holds reports whether the queue has stripe sk in its care — queued,
// parked or in flight — or owes a full Scrub, which may find any stripe
// behind. Such a stripe's copies may disagree, so reads gather every slot
// and take the newest write (readSpan). An idle (or disabled) queue
// answers without a lock.
func (q *repairQueue) holds(sk string) bool {
	if q == nil || !q.busy.Load() {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.overflow || q.held[sk] > 0
}

// park shelves a unit whose repair is blocked on the waitFor targets; it
// returns to the runnable list once they recover (Up event or rescan
// tick).
func (q *repairQueue) park(u repairUnit, waitFor []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.seen[u.key()] {
		return // re-enqueued while in flight: already runnable again
	}
	if len(q.seen) >= q.pol.QueueCap {
		q.overflow = true
		q.scrubDue = true
		q.overflows.Add(1)
		q.busy.Store(true)
		return
	}
	q.seen[u.key()] = true
	q.hold(u.sk, 1)
	q.parked = append(q.parked, parkedUnit{u: u, waitFor: waitFor})
}

func (q *repairQueue) takeScrubDue() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.scrubDue {
		return false
	}
	q.scrubDue = false
	q.scrubbing = true
	return true
}

// loop is the dispatcher: pop runnable units, repair them on bounded
// worker goroutines with pacing between dispatches, run the owed full
// Scrub when the overflow path armed one, and otherwise sleep until a
// kick or the parked-rescan tick.
func (q *repairQueue) loop() {
	defer q.wg.Done()
	rescan := time.NewTicker(rescanInterval)
	defer rescan.Stop()
	sem := make(chan struct{}, repairWorkers)
	for {
		if q.takeScrubDue() {
			q.runFullScrub()
			continue
		}
		u, ok := q.pop()
		if !ok {
			select {
			case <-q.stopCh:
				return
			case <-q.kickCh:
			case <-rescan.C:
				q.unparkReady()
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
	case len(out.pending) > 0:
		if len(out.pending) == 1 && out.pending[0] == repairWaitCommit {
			u.commitRetries++
			if u.commitRetries > maxCommitRetries {
				// The size never caught up: the stripe sits beyond the
				// file for real (truncated), so absence is correct.
				q.repaired.Add(1)
				q.fs.obs.note("repair", "", "dropped "+u.key()+" after commit-settle reruns (stripe beyond committed size)", u.src)
				return
			}
		}
		q.park(u, out.pending)
		q.fs.obs.note("repair", "", fmt.Sprintf("parked %s waiting on %v", u.key(), out.pending), u.src)
	default:
		q.repaired.Add(1)
		// The note names what each rewritten copy replaced.
		what := fmt.Sprintf("+%d copies %v", len(out.restored), out.restored)
		if !u.enqueuedAt.IsZero() {
			wait := time.Since(u.enqueuedAt)
			q.waitHist.Observe(wait)
			what += ", wait " + wait.Round(time.Millisecond).String()
		}
		q.fs.obs.note("repair", "", fmt.Sprintf("restored %s (%s)", u.key(), what), u.src)
	}
}

// runFullScrub is the overflow catch-all. The overflow debt clears only
// when a Scrub runs with nothing deferred — a pass that skipped stripes
// because their targets were down still owes a follow-up, re-armed by the
// next Up event.
func (q *repairQueue) runFullScrub() {
	q.fullScrubs.Add(1)
	rep, err := q.fs.Scrub()
	q.mu.Lock()
	if err == nil {
		q.restored.Add(int64(len(rep.Restored)))
		if len(rep.Deferred) == 0 {
			q.overflow = false
			q.busy.Store(len(q.held) > 0)
		}
	}
	q.scrubbing = false
	q.mu.Unlock()
}

func (q *repairQueue) stats() RepairStats {
	q.mu.Lock()
	queued, parked, inFlight := len(q.active), len(q.parked), q.inFlight
	q.mu.Unlock()
	return RepairStats{
		Enqueued:     q.enqueued.Value(),
		Repaired:     q.repaired.Value(),
		Restored:     q.restored.Value(),
		Unrepairable: q.unrepairable.Value(),
		Overflows:    q.overflows.Value(),
		FullScrubs:   q.fullScrubs.Value(),
		Queued:       queued,
		Parked:       parked,
		InFlight:     inFlight,
	}
}

// idle reports whether the queue has no runnable work: nothing queued, in
// flight, or owed a Scrub, and no parked unit a blocker of which has
// cleared. Units parked only on nodes still Down do not count — they
// cannot make progress until one recovers.
func (q *repairQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.active) > 0 || q.inFlight > 0 || q.scrubDue || q.scrubbing {
		return false
	}
	for _, p := range q.parked {
		if q.ready(p) {
			return false
		}
	}
	return true
}

// --- FileSystem surface ----------------------------------------------------

// enqueueRepair hands a known-degraded stripe to the repair queue (no-op
// when the queue is disabled).
func (fs *FileSystem) enqueueRepair(path, sk string, idx int64, src trace.ID) {
	if fs.repairs != nil {
		fs.repairs.enqueue(path, sk, idx, src)
	}
}

// RepairStats snapshots the repair queue (zero value when disabled).
func (fs *FileSystem) RepairStats() RepairStats {
	if fs.repairs == nil {
		return RepairStats{}
	}
	return fs.repairs.stats()
}

// RepairIdle reports whether the repair queue has drained all runnable
// work (parked units blocked on down nodes excluded). Always true when
// the queue is disabled.
func (fs *FileSystem) RepairIdle() bool {
	return fs.repairs == nil || fs.repairs.idle()
}

// WaitRepairIdle polls until the repair queue drains or timeout elapses,
// reporting whether it drained — the test and benchmark hook behind
// time-to-full-redundancy measurements.
func (fs *FileSystem) WaitRepairIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if fs.RepairIdle() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
