package core

import (
	"cmp"
	"context"
	"errors"
	"time"
)

// This file is the one reclamation record per victim node (DESIGN.md,
// "One reclamation per victim"): every trigger only merges its goal into
// it, and at most one run, a partial drain or an evacuation, works toward
// the goal at a time. Revoke is the one revocation: a leave goal whose
// start is the end of its lessees' notice.

// reclaimGoal is what triggers want from a victim node: its store drained
// to fill bytes (0: none) or to the soft target, or the node evacuated
// (leave) within deadline of its run's fence, starting no earlier than
// start (the end of a revocation's notice; zero: now) unless no lessee is
// left to wait for. Merging keeps the lower fill, leave over any fill,
// the earlier start and the shorter deadline.
type reclaimGoal struct {
	fill     int64
	soft     bool
	leave    bool
	start    time.Time
	deadline time.Duration
}

func (g *reclaimGoal) merge(o reclaimGoal) {
	if o.fill > 0 && (g.fill == 0 || o.fill < g.fill) {
		g.fill = o.fill
	}
	g.soft = g.soft || o.soft
	switch {
	case !o.leave:
	case !g.leave:
		g.leave, g.start, g.deadline = true, o.start, o.deadline
	default:
		if o.start.Before(g.start) {
			g.start = o.start
		}
		g.deadline = min(g.deadline, o.deadline)
	}
}

// due is the part of g a run may start now on nodeID: a leave waits out
// its notice while a lease on the node is still under notice.
func (fs *FileSystem) due(nodeID string, g reclaimGoal) reclaimGoal {
	if time.Now().Before(g.start) && fs.leases.Noticed(nodeID) > 0 {
		return reclaimGoal{fill: g.fill, soft: g.soft}
	}
	return g
}

// reclaim is one victim node's record (fs.reclaims, under fs.reclaimMu).
type reclaim struct {
	goal    reclaimGoal // background triggers' goal, kept until a run meets it
	run     *reclaimRun // the active run, nil when idle
	next    *reclaimRun // the next leave run, made early for the revocations waiting on it
	backoff time.Duration
	retryAt time.Time // no background run starts before
}

// reclaimRun is one drain or evacuation (goal.leave and goal.deadline are
// fixed at start). A drain reads its target from goal at every pass; a
// leave preempts it instead, ending it at its next batch boundary.
type reclaimRun struct {
	node          string
	goal          reclaimGoal
	cutoff        time.Time // a leave's deadline, moved earlier by a stricter trigger
	bg, preempted bool
	preempt       context.CancelCauseFunc
	done          chan struct{} // closed when the run has ended
	drain         *DrainReport
	evac          *EvacReport
	fence         time.Time // when a leave began evicting: its lessees' notice ended
	sloMet        bool      // every lease noticed on the node had its notice by fence
	err           error
}

// RevokeOptions tunes one revocation: EvacDeadline bounds the evacuation
// from its fence (0: 30s), and Force starts the eviction now instead of
// at the end of the notice, counting every lease it cuts short violated.
type RevokeOptions struct {
	EvacDeadline time.Duration
	Force        bool
}

// RevokeReport describes one revocation.
type RevokeReport struct {
	Node   string
	Leases int           // leases under notice on the node
	SLO    time.Duration // the strictest (largest) NoticeSLO among them
	Notice time.Duration // notice delivered before the evacuation's fence
	SLOMet bool          // every noticed lease had its NoticeSLO (true with none)
}

// Revoke takes a victim node back (paper §III-A; Memtrade's notice,
// PAPERS.md): every active lease on it gets its notice, and the node's
// record a leave goal that starts when the strictest notice ends, at once
// under opts.Force, or when the last noticed lessee releases its lease.
// Once issued it stands: ctx bounds only the caller's wait for the
// evacuation's report (nil error: the node left), and the Monitor retries
// a failed one on the node's backoff. Each lessee's notice is measured at
// the evacuation's fence and counted met or violated.
func (fs *FileSystem) Revoke(ctx context.Context, nodeID string, opts RevokeOptions) (RevokeReport, error) {
	if err := cmp.Or(fs.check(), fs.victimNode(nodeID)); err != nil {
		return RevokeReport{Node: nodeID}, err
	}
	fs.leases.Withdraw(nodeID) // no new lease lands on a node being reclaimed
	now := time.Now()
	n, slo, end := fs.leases.Notice(nodeID, now)
	rep := RevokeReport{Node: nodeID, Leases: n, SLO: slo}
	g := reclaimGoal{leave: true, start: end, deadline: cmp.Or(opts.EvacDeadline, defaultEvacDeadline)}
	if opts.Force {
		g.start = now
	}
	run := fs.leaveRun(nodeID, g)
	time.AfterFunc(time.Until(g.start), func() { fs.kick(nodeID) })
	var fence time.Time // when the eviction began: the first run's fence
	met := true
	for {
		select {
		case <-run.done:
		case <-ctx.Done():
			return rep, ctx.Err()
		}
		if fence.IsZero() {
			fence = run.fence
		}
		met = met && run.sloMet
		// A run its starter canceled (an Evacuate that took the leave up)
		// did not answer the revocation: while the record holds it, wait
		// on the next run.
		if !errors.Is(run.err, context.Canceled) {
			break
		}
		next := fs.leaveRun(nodeID, reclaimGoal{})
		if next == nil {
			break
		}
		run = next
		fs.kick(nodeID)
	}
	rep.Notice, rep.SLOMet = max(fence.Sub(now), 0), met
	return rep, run.err
}

// leaveRun merges g into nodeID's record and returns the run that carries
// its leave: the active evacuation, or the next leave run, made early so
// revocations can wait on it; nil when the record holds no leave.
func (fs *FileSystem) leaveRun(nodeID string, g reclaimGoal) *reclaimRun {
	fs.reclaimMu.Lock()
	defer fs.reclaimMu.Unlock()
	r := fs.record(nodeID)
	r.goal.merge(g)
	switch {
	case r.run != nil && r.run.goal.leave:
		return r.run
	case !r.goal.leave:
		return nil
	case r.next == nil:
		r.next = &reclaimRun{done: make(chan struct{})}
	}
	return r.next
}

// kick starts nodeID's open goal if it is due and the node idle, whatever
// backoff an earlier run left: a revocation acts as soon as its notice
// ends or its last noticed lessee leaves (the Broker's hook), and a leave
// as soon as the drain it preempted has stopped.
func (fs *FileSystem) kick(nodeID string) {
	if fs.check() != nil {
		return
	}
	fs.reclaimMu.Lock()
	fs.record(nodeID).retryAt = time.Time{}
	fs.reclaimMu.Unlock()
	fs.reclaimStart(context.Background(), nodeID, reclaimGoal{}, true)
}

// record returns nodeID's record, made on first use (under fs.reclaimMu).
func (fs *FileSystem) record(nodeID string) *reclaim {
	r := fs.reclaims[nodeID]
	if r == nil {
		r = &reclaim{}
		fs.reclaims[nodeID] = r
	}
	return r
}

// reclaimWait is the synchronous trigger: it returns the run that meets
// g, or one carrying only the error that kept it from waiting. A run it
// starts runs under ctx and answers whatever the outcome; one someone
// else started is waited for until ctx ends, and asked again when it did
// not meet g (a drain g preempted, a run its starter canceled).
func (fs *FileSystem) reclaimWait(ctx context.Context, nodeID string, g reclaimGoal) *reclaimRun {
	if err := cmp.Or(fs.check(), fs.victimNode(nodeID)); err != nil {
		return &reclaimRun{err: err}
	}
	for {
		run, mine := fs.reclaimStart(ctx, nodeID, g, false)
		select {
		case <-run.done:
		case <-ctx.Done():
			if !mine {
				return &reclaimRun{err: ctx.Err()}
			}
			<-run.done
		}
		if mine || run.err == nil && (run.evac != nil || !g.leave) {
			return run
		}
	}
}

// reclaimStart merges g into nodeID's record and returns the active run,
// or one it starts (mine) in a goroutine under ctx when the node is idle
// and a goal is due. A background trigger (bg) keeps its goal in the
// record until a run meets it, to be started again by the next trigger,
// and starts nothing while the node backs off (nil run).
func (fs *FileSystem) reclaimStart(ctx context.Context, nodeID string, g reclaimGoal, bg bool) (run *reclaimRun, mine bool) {
	fs.reclaimMu.Lock()
	defer fs.reclaimMu.Unlock()
	r := fs.record(nodeID)
	if bg {
		r.goal.merge(g)
		g = r.goal
	}
	g = fs.due(nodeID, g)
	if run = r.run; run == nil {
		g.merge(fs.due(nodeID, r.goal))
		if g == (reclaimGoal{}) || bg && time.Now().Before(r.retryAt) {
			return nil, false
		}
		run = &reclaimRun{done: make(chan struct{})}
		if g.leave && r.next != nil {
			run, r.next = r.next, nil
		}
		rctx, preempt := context.WithCancelCause(ctx)
		run.node, run.goal, run.bg, run.preempt = nodeID, g, bg, preempt
		run.cutoff = time.Now().Add(g.deadline)
		r.run = run
		if bg && fs.monitor != nil {
			go fs.monitor.report(run)
		}
		go fs.runReclaim(rctx, r, run)
		return run, true
	}
	switch {
	case g.leave && !run.goal.leave:
		run.preempted = true
		run.preempt(context.DeadlineExceeded)
	case g.leave:
		if at := time.Now().Add(g.deadline); at.Before(run.cutoff) { // the earlier deadline wins
			run.cutoff = at
			time.AfterFunc(time.Until(at), func() { run.preempt(context.DeadlineExceeded) })
		}
	default:
		run.goal.merge(g)
	}
	return run, false
}

// runReclaim runs one drain or evacuation and settles the record: a
// failed background run, or a drain stalled above its target, doubles
// the backoff, and a success resets it and clears the goal it met. A
// drain a background leave preempted starts that leave; a synchronous
// preemptor is waiting to start its own run.
func (fs *FileSystem) runReclaim(ctx context.Context, r *reclaim, run *reclaimRun) {
	cli, err := fs.conns.client(run.node)
	switch {
	case err != nil:
		run.err = err
	case run.goal.leave:
		run.fence = time.Now()
		run.evac, run.err = fs.evacuate(ctx, cli, run.node, run.goal.deadline)
		run.sloMet = fs.leases.Evict(run.node, run.fence)
	default:
		run.drain, run.err = fs.drain(ctx, cli, run)
	}
	run.preempt(nil)
	fs.reclaimMu.Lock()
	r.run = nil
	switch {
	case run.err != nil || run.drain != nil && !run.preempted && run.drain.BytesAfter > run.drain.Target:
		if run.bg {
			r.backoff = min(max(2*r.backoff, cmp.Or(fs.cfg.Evac.Backoff, defaultEvacBackoff)),
				cmp.Or(fs.cfg.Evac.MaxBackoff, defaultEvacMaxBackoff))
			r.retryAt = time.Now().Add(r.backoff)
		}
	case run.goal.leave:
		r.backoff, r.retryAt, r.goal = 0, time.Time{}, reclaimGoal{}
	case !run.preempted:
		r.backoff, r.retryAt = 0, time.Time{}
		r.goal.fill, r.goal.soft = 0, false
	}
	kick := run.preempted && fs.due(run.node, r.goal).leave
	fs.reclaimMu.Unlock()
	close(run.done)
	if kick {
		fs.kick(run.node)
	}
}
