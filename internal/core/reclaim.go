package core

import (
	"cmp"
	"context"
	"time"
)

// This file is the one reclamation record per victim node (DESIGN.md,
// "One reclamation per victim"): every trigger only merges its goal into
// it, and at most one run, a partial drain or an evacuation, works toward
// the goal at a time.

// reclaimGoal is what triggers want from a victim node: its store drained
// to fill bytes (0: none) or to the soft target, or the node evacuated
// (leave) by deadline. Merging keeps the lower fill, leave over any fill
// and the earlier deadline.
type reclaimGoal struct {
	fill     int64
	soft     bool
	leave    bool
	deadline time.Time
}

func (g *reclaimGoal) merge(o reclaimGoal) {
	if o.fill > 0 && (g.fill == 0 || o.fill < g.fill) {
		g.fill = o.fill
	}
	g.soft = g.soft || o.soft
	if o.leave && (!g.leave || o.deadline.Before(g.deadline)) {
		g.leave, g.deadline = true, o.deadline
	}
}

// reclaim is one victim node's record (fs.reclaims, under fs.reclaimMu).
type reclaim struct {
	goal    reclaimGoal // background triggers' goal, kept until a run meets it
	run     *reclaimRun // the active run, nil when idle
	backoff time.Duration
	retryAt time.Time // no background run starts before
}

// reclaimRun is one drain or evacuation (goal.leave and goal.deadline are
// fixed at start). A drain reads its target from goal at every pass; a
// leave preempts it instead, ending it at its next batch boundary.
type reclaimRun struct {
	node          string
	goal          reclaimGoal
	bg, preempted bool
	preempt       context.CancelCauseFunc
	done          chan struct{} // closed when the run has ended
	drain         *DrainReport
	evac          *EvacReport
	err           error
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
// or one it starts (mine) in a goroutine under ctx when the node is idle.
// A background trigger (bg) keeps its goal in the record until a run
// meets it, to be started again by the next trigger, and starts nothing
// while the node backs off (nil run).
func (fs *FileSystem) reclaimStart(ctx context.Context, nodeID string, g reclaimGoal, bg bool) (run *reclaimRun, mine bool) {
	fs.reclaimMu.Lock()
	defer fs.reclaimMu.Unlock()
	r := fs.reclaims[nodeID]
	if r == nil {
		r = &reclaim{}
		fs.reclaims[nodeID] = r
	}
	if bg {
		r.goal.merge(g)
	}
	if run = r.run; run == nil {
		g.merge(r.goal)
		if g == (reclaimGoal{}) || bg && time.Now().Before(r.retryAt) {
			return nil, false
		}
		rctx, preempt := context.WithCancelCause(ctx)
		r.run = &reclaimRun{node: nodeID, goal: g, bg: bg, preempt: preempt, done: make(chan struct{})}
		go fs.runReclaim(rctx, r, r.run)
		return r.run, true
	}
	switch {
	case g.leave && !run.goal.leave:
		run.preempted = true
		run.preempt(context.DeadlineExceeded)
	case g.leave:
		if g.deadline.Before(run.goal.deadline) { // the earlier deadline wins
			time.AfterFunc(time.Until(g.deadline), func() { run.preempt(context.DeadlineExceeded) })
		}
	default:
		run.goal.merge(g)
	}
	return run, false
}

// runReclaim runs one drain or evacuation and settles the record: a
// failed background run, or a drain stalled above its target, doubles
// the backoff, and a success resets it and clears the goal it met.
func (fs *FileSystem) runReclaim(ctx context.Context, r *reclaim, run *reclaimRun) {
	cli, err := fs.conns.client(run.node)
	switch {
	case err != nil:
		run.err = err
	case run.goal.leave:
		run.evac, run.err = fs.evacuate(ctx, cli, run.node, run.goal.deadline)
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
	case !run.preempted:
		r.backoff, r.retryAt = 0, time.Time{}
		r.goal = reclaimGoal{}
	}
	fs.reclaimMu.Unlock()
	close(run.done)
}
