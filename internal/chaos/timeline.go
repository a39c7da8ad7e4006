package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"memfss/internal/core"
	"memfss/internal/faultwrap"
	"memfss/internal/health"
)

// fireOpSteps fires every pending op-count step due at or before op i of
// the named stream. It runs in the worker that crossed the threshold, so
// "kill at op N" happens before op N is issued — the exact ordering the
// bespoke soaks relied on.
func (r *run) fireOpSteps(stream string, i int) {
	var due []*stepState
	r.mu.Lock()
	for _, st := range r.pending {
		if st.fired || st.step.AfterOps <= 0 {
			continue
		}
		if st.step.Stream != "" && st.step.Stream != stream {
			continue
		}
		if i >= st.step.AfterOps {
			st.fired = true
			due = append(due, st)
		}
	}
	r.mu.Unlock()
	for _, st := range due {
		r.fireStep(context.Background(), st.step)
	}
}

// runTimed fires the time-based steps in At order from one goroutine.
func (r *run) runTimed(ctx context.Context) {
	var timed []*stepState
	r.mu.Lock()
	for _, st := range r.pending {
		if st.step.AfterOps <= 0 {
			timed = append(timed, st)
		}
	}
	r.mu.Unlock()
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].step.At < timed[j].step.At })
	for _, st := range timed {
		wait := time.Until(r.start.Add(st.step.At))
		if wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		r.mu.Lock()
		fired := st.fired
		st.fired = true
		r.mu.Unlock()
		if !fired {
			r.fireStep(ctx, st.step)
		}
	}
}

// fireStep journals the step, marks fault/heal bookkeeping, and applies
// the action (inline, or detached for Async steps).
func (r *run) fireStep(ctx context.Context, step Step) {
	now := time.Now()
	act := step.Action
	nodes := make([]string, 0, len(act.Nodes))
	for _, idx := range act.Nodes {
		nodes = append(nodes, r.cluster.VictimID(idx))
	}
	r.mu.Lock()
	if act.Fault {
		for _, id := range nodes {
			if _, ok := r.faultAt[id]; !ok {
				r.faultAt[id] = now
			}
		}
	}
	if act.Heal {
		r.healAt = now
		// Resume and clean-plan heals leave the node in place, so the
		// detector is expected to re-admit it; recovery settling waits
		// for that before trusting repair idleness (an Evacuate heal
		// removes the node instead — nothing to wait for).
		if act.Kind == ActResume || act.Kind == ActSetPlan {
			for _, id := range nodes {
				r.healed[id] = true
			}
		}
	}
	r.mu.Unlock()
	detail := fmt.Sprintf("step %q: %s", step.Name, actionString(act, nodes))
	for _, id := range nodes {
		r.note(id, detail)
	}
	if len(nodes) == 0 {
		r.note("", detail)
	}
	run := func() {
		if err := r.applyAction(ctx, act); err != nil {
			r.mu.Lock()
			r.stepErr = append(r.stepErr, fmt.Sprintf("step %q: %v", step.Name, err))
			r.mu.Unlock()
		}
	}
	if step.Async {
		r.asyncWG.Add(1)
		go func() {
			defer r.asyncWG.Done()
			run()
		}()
		return
	}
	run()
}

func actionString(a Action, nodes []string) string {
	target := strings.Join(nodes, ",")
	switch a.Kind {
	case ActKill:
		return "kill " + target
	case ActPause:
		return "pause " + target
	case ActResume:
		return "resume " + target
	case ActSetPlan:
		return "set plan on " + target
	case ActEvacuate:
		return "evacuate " + target
	case ActRevoke:
		return "revoke " + target
	case ActWaitState:
		return fmt.Sprintf("wait %s state %s", target, a.State)
	case ActWaitRepairIdle:
		return "wait repair idle"
	case ActFunc:
		return "custom action"
	default:
		return "unknown action"
	}
}

func (r *run) applyAction(ctx context.Context, a Action) error {
	c := r.cluster
	switch a.Kind {
	case ActKill:
		for _, i := range a.Nodes {
			c.Proxies[i].Kill()
		}
	case ActPause:
		for _, i := range a.Nodes {
			c.Proxies[i].Pause()
		}
	case ActResume:
		for _, i := range a.Nodes {
			c.Proxies[i].Resume()
		}
	case ActSetPlan:
		if a.Plan == nil {
			return errors.New("SetPlan action without a plan")
		}
		for _, i := range a.Nodes {
			// Keep each proxy's derived seed so the PRNG stream stays a
			// function of the topology seed.
			p := *a.Plan
			p.Seed = r.sc.Topology.Plan.Seed + int64(i)
			c.Proxies[i].SetPlan(p)
		}
	case ActEvacuate:
		id := c.VictimID(a.Nodes[0])
		var lastErr error
		for try := 0; try <= a.Retries; try++ {
			rep, err := c.FS.Evacuate(ctx, id, core.EvacOptions{})
			if err == nil {
				r.mu.Lock()
				r.evacs = append(r.evacs, EvacSummary{
					Node: id, Moved: rep.Moved, Deferred: rep.Deferred,
					AtRisk: rep.AtRisk, Passes: rep.Passes, Forced: rep.Forced,
					ElapsedMs: ms(rep.Elapsed),
				})
				r.healAt = time.Now() // redundancy work restarts from release
				r.mu.Unlock()
				return nil
			}
			lastErr = err
			r.logf("chaos %s: evacuate %s attempt %d: %v", r.sc.Name, id, try+1, err)
		}
		return fmt.Errorf("evacuate %s: %w", id, lastErr)
	case ActRevoke:
		id := c.VictimID(a.Nodes[0])
		start := time.Now()
		rep, err := c.FS.Revoke(ctx, id, core.RevokeOptions{EvacDeadline: a.Timeout})
		took := time.Since(start)
		r.mu.Lock()
		r.revokes = append(r.revokes, RevokeSummary{
			Node: id, Leases: rep.Leases, NoticeSLOMs: ms(rep.SLO), NoticeMs: ms(rep.Notice),
			SLOMet: rep.SLOMet, LeaveMs: ms(took - rep.Notice),
		})
		r.healAt = time.Now() // redundancy work restarts from release
		r.mu.Unlock()
		if err != nil {
			return fmt.Errorf("revoke %s: %w", id, err)
		}
	case ActWaitState:
		return r.waitState(ctx, c.VictimID(a.Nodes[0]), a.State, a.Timeout)
	case ActWaitRepairIdle:
		timeout := a.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		if !c.FS.WaitRepairIdle(timeout) {
			return fmt.Errorf("repair queue not idle within %v: %+v", timeout, c.FS.RepairStats())
		}
	case ActFunc:
		if a.Func == nil {
			return errors.New("func action without a func")
		}
		return a.Func(ctx, c)
	}
	return nil
}

// waitState polls the detector (and the drain overlay) until the node
// reports the wanted state.
func (r *run) waitState(ctx context.Context, nodeID, want string, timeout time.Duration) error {
	want = strings.ToLower(want)
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		cur := "up"
		if h, ok := r.cluster.FS.Health()[nodeID]; ok {
			cur = h.State.String()
		}
		if cur != "draining" && want == "draining" {
			for _, d := range r.cluster.FS.Draining() {
				if d == nodeID {
					cur = "draining"
				}
			}
		}
		if cur == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s is %s after %v, want %s", nodeID, cur, timeout, want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scanDetections reads the flight recorder for "-> down" health
// transitions of faulted nodes. Using the journal instead of polling
// means a transient Down between polls is still witnessed, with the
// detector's own timestamp.
func (r *run) scanDetections() {
	events := r.cluster.FS.Events().Events(1024, "health")
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range events {
		at, ok := r.faultAt[ev.Node]
		if !ok {
			continue
		}
		if _, done := r.detect[ev.Node]; done {
			continue
		}
		if !strings.HasSuffix(ev.Detail, "-> down") || ev.At.Before(at) {
			continue
		}
		r.detect[ev.Node] = ev.At.Sub(at)
	}
}

// settleDetection waits out the detection SLO for any faulted node the
// detector has not yet condemned. Without a MaxDetection bound it only
// scans what already happened.
func (r *run) settleDetection(ctx context.Context) {
	r.scanDetections()
	bound := r.sc.SLO.MaxDetection
	if bound <= 0 {
		return
	}
	for {
		r.mu.Lock()
		var wait time.Time
		for id, at := range r.faultAt {
			if _, ok := r.detect[id]; ok {
				continue
			}
			if dl := at.Add(bound); wait.IsZero() || dl.Before(wait) {
				wait = dl
			}
		}
		r.mu.Unlock()
		if wait.IsZero() || time.Now().After(wait) || ctx.Err() != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
		r.scanDetections()
	}
}

type recoveryOutcome struct {
	dur      time.Duration
	timedOut bool
}

// settleRecovery waits for the targeted repair queue to go idle and
// reports heal-to-idle time. The wait budget is the SLO bound (plus
// slack) so a blown SLO surfaces as a measured violation, not a hang.
func (r *run) settleRecovery() recoveryOutcome {
	if r.sc.Topology.Repair.Disable {
		return recoveryOutcome{}
	}
	r.mu.Lock()
	from := r.healAt
	if from.IsZero() {
		for _, at := range r.faultAt {
			if from.IsZero() || at.After(from) {
				from = at
			}
		}
	}
	r.mu.Unlock()
	if from.IsZero() {
		from = r.start
	}
	budget := r.sc.SLO.MaxRecovery
	if budget <= 0 {
		budget = 30 * time.Second
	}
	// Poll instead of one blocking wait so the measurement is the moment
	// idleness was first observed, not the wait's return.
	deadline := from.Add(budget + 5*time.Second)
	// Stripes owed on a Down node do not count against repair idleness
	// (no census pass can restore them), so between a heal and the
	// detector re-admitting the node the queue can look idle with
	// stripes still owed. Wait for every healed-in-place node to be Up
	// again before trusting idle; a node that never returns runs out the
	// same deadline and surfaces as a recovery timeout.
	r.mu.Lock()
	waitUp := make([]string, 0, len(r.healed))
	for id := range r.healed {
		waitUp = append(waitUp, id)
	}
	r.mu.Unlock()
	for len(waitUp) > 0 && !time.Now().After(deadline) {
		snap := r.cluster.FS.Health()
		if snap == nil {
			break
		}
		allUp := true
		for _, id := range waitUp {
			if h, ok := snap[id]; ok && h.State != health.Up {
				allUp = false
				break
			}
		}
		if allUp {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		if r.cluster.FS.WaitRepairIdle(10 * time.Millisecond) {
			return recoveryOutcome{dur: time.Since(from)}
		}
		if time.Now().After(deadline) {
			return recoveryOutcome{dur: time.Since(from), timedOut: true}
		}
	}
}

func (r *run) proxyStats() faultwrap.Stats {
	return faultwrap.TotalStats(r.cluster.Proxies)
}

// finalVerify re-reads every path whose acknowledged content is known
// and byte-compares — the zero-loss ledger. Tainted paths (a write
// failed; content unknowable) are counted but not compared: Fsck's census
// still judges their stripes readable from the slot headers.
func (r *run) finalVerify(res *Result) {
	all := r.streams
	if r.preload != nil {
		all = append([]*streamRun{r.preload}, all...)
	}
	for _, s := range all {
		s.mu.Lock()
		paths := make(map[string][]byte, len(s.paths))
		for p, b := range s.paths {
			if !s.tainted[p] {
				paths[p] = b
			}
		}
		res.TaintedPaths += len(s.tainted)
		s.mu.Unlock()
		for p, want := range paths {
			if want == nil {
				continue
			}
			got, err := r.cluster.FS.ReadFile(p)
			if err != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("final verify %s: %v", p, err))
				continue
			}
			if !bytes.Equal(got, want) {
				res.LossMismatches++
				res.Violations = append(res.Violations,
					fmt.Sprintf("final verify %s: content mismatch (%d bytes)", p, len(got)))
				continue
			}
			res.VerifiedPaths++
		}
	}
}
