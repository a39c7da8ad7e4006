package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"memfss/internal/erasure"
	"memfss/internal/health"
	"memfss/internal/kvstore"
	"memfss/internal/stripe"
)

// This file holds the stripe engine's wire half: every stripe write —
// replicated or erasure-coded, one span or many — is a stripePlan shipped
// by shipWrites, and every read starts in readSpans. Commands are grouped
// per target node, split into PipelineDepth-sized bursts, and the bursts
// shipped as wire pipelines — IOParallelism bursts in flight at once, each
// on its own pooled connection. file.go keeps what a burst cannot do: the
// erasure prepare and the gather.

// spanCmd is one queued store command. It is typed rather than a
// pre-marshaled [][]byte so queueing encodes straight into the pipeline's
// wire tape: write payloads and read destinations are referenced zero-copy
// and must stay valid until the burst completes.
type spanCmd struct {
	slot int   // where the caller files this command's outcome
	idx  int64 // stripe index, for trace attribution
	op   byte  // opSet, opVSet, opSetNX, opGetRange or opGetShard
	key  string
	id   uint64 // VSET write ID
	off  int64  // VSET payload offset (kvstore.Whole replaces) or GETRANGE offset
	n    int64  // payload/read bytes, for victim throttling
	hdr  []byte // shard header sent before data (opSet) or read before dst (opGetShard)
	data []byte // write payload (opSet, opVSet, opSetNX)
	dst  []byte // read destination (opGetRange: len(dst) == n; opGetShard: the shard body)
}

const (
	opSet      byte = iota // an erasure shard, its header stamped by the writer
	opVSet                 // a replica, its header stamped by the store
	opSetNX                // a replica hole's first bytes, header included (vsetMoved)
	opGetRange             // a replica's payload range
	opGetShard             // an erasure data shard, header and body
)

func (c *spanCmd) verb() string {
	switch c.op {
	case opSet:
		return "SET"
	case opVSet:
		return "VSET"
	case opSetNX:
		return "SETNX"
	default:
		return "GETRANGE"
	}
}

// queue encodes the command into a pipeline.
func (c *spanCmd) queue(pl *kvstore.Pipeline) {
	switch c.op {
	case opSet:
		pl.Set(c.key, c.hdr, c.data)
	case opVSet:
		pl.VSet(c.key, c.id, c.off, c.data)
	case opSetNX:
		pl.SetNX(c.key, c.data)
	case opGetShard:
		pl.GetShardInto(c.key, c.hdr, c.dst)
	default:
		pl.GetRangeInto(c.key, c.off, c.n, c.dst)
	}
}

// nodeBurst is one pipeline's worth of commands bound for one node.
type nodeBurst struct {
	node string
	cmds []spanCmd
}

// splitBursts chops each node's queue into depth-sized bursts. Bursts
// carry commands for distinct keys, so they may run concurrently — even
// two bursts to the same node, on separate pooled connections.
func splitBursts(perNode map[string][]spanCmd, nodeOrder []string, depth int) []nodeBurst {
	bursts := make([]nodeBurst, 0, len(nodeOrder))
	for _, node := range nodeOrder {
		cmds := perNode[node]
		for start := 0; start < len(cmds); start += depth {
			end := start + depth
			if end > len(cmds) {
				end = len(cmds)
			}
			bursts = append(bursts, nodeBurst{node: node, cmds: cmds[start:end]})
		}
	}
	return bursts
}

// runBurst throttles and ships one burst, observes its duration in
// memfss_fs_stripe_seconds{op,class} and records it in the trace. A burst
// of one command is a stripe-scoped store span whose outcome includes the
// command's own reply (error, miss); a longer burst is one anonymous span
// (stripe -1): per-stripe attribution inside a wire pipeline is
// meaningless, but the node, class, attempt count, and burst duration are
// exactly what a slow multi-stripe op needs named. abort, when not nil,
// may cancel the burst (kvstore.ErrAborted). It returns the replies
// aligned with nb.cmds, whether the burst took more than one attempt, and
// the burst-level transport error.
func (f *File) runBurst(tr *opTrace, op string, nb nodeBurst, abort *kvstore.Abort) ([]*kvstore.Reply, bool, error) {
	cls := f.fs.conns.class(nb.node)
	idx := int64(-1)
	if len(nb.cmds) == 1 {
		idx = nb.cmds[0].idx
	}
	cli, err := f.fs.conns.client(nb.node)
	if err == nil {
		var total int64
		for _, c := range nb.cmds {
			total += c.n
		}
		err = f.fs.conns.throttle(nb.node).Take(total)
	}
	var st kvstore.OpStat
	var replies []*kvstore.Reply
	if err == nil {
		pl := cli.Pipeline()
		for i := range nb.cmds {
			nb.cmds[i].queue(pl)
		}
		replies, err = pl.RunAbortable(abort, &st)
		f.fs.obs.stripeHist(op, cls).Observe(st.Dur)
	}
	outcome := phaseOutcome(err, st.Attempts)
	if err == nil && idx >= 0 {
		switch r := replies[0]; {
		case r.Err() != nil:
			outcome = "error"
		case r.Nil:
			outcome = "miss"
		}
	}
	tr.phaseOp(idx, nb.node, cls, st, outcome)
	return replies, st.Attempts > 1, err
}

// stripePlan is one stripe's write, ready to ship: where it goes, how
// many targets must take it, and what each target is sent.
type stripePlan struct {
	index  int64    // stripe index
	sk     string   // raw stripe key: placement and the repair queue use it
	nodes  []string // write targets in HRW rank order, one per slot
	quorum int      // slots that must land for the write to be acknowledged
	// cmd is what every replica receives; when shards is set, slot i
	// receives shards[i] instead — a distinct erasure shard per target, so
	// a failed write that landed anywhere leaves a torn stripe behind.
	cmd    spanCmd
	shards []spanCmd
	// parity holds the pooled buffers the parity shards were encoded
	// into, returned by release.
	parity []*[]byte
}

// release returns the plan's parity buffers to the shard pool. Call it
// once shipWrites has returned: shipWrites waits for every burst, retries
// included, so no tape references them any more.
func (pl *stripePlan) release(fs *FileSystem) {
	for _, b := range pl.parity {
		if poisonReleased.Load() {
			for i := range *b {
				(*b)[i] = 0xDB
			}
		}
		fs.shardBufs.Put(b)
	}
	pl.parity = nil
}

// poisonReleased, set by a test, scribbles 0xDB over parity buffers as
// release returns them: a shard sent from one after its release reaches
// the store as garbage that a read through parity then returns.
var poisonReleased atomic.Bool

// shipWrites is the one stripe-write path. It decides per target whether
// the failure detector or a drain fence skips it, ships the rest as
// per-node bursts, settles every plan from its per-slot outcomes — also
// the plans after one that failed: their stripes may have landed on a
// quorum and need the same accounting and repair — and returns how many
// leading plans succeeded with the first error in plan order.
func (f *File) shipWrites(tr *opTrace, plans []stripePlan) (int, error) {
	type slotResult struct {
		err          error
		retried      bool
		gen          int64 // the generation a VSET stamped
		plan, target int
	}
	slots := 0
	for i := range plans {
		slots += len(plans[i].nodes)
	}
	// One entry per (plan, target), plans in order. Each is written by the
	// skip decision below or by the one burst carrying its command.
	results := make([]slotResult, slots)
	perNode := make(map[string][]spanCmd)
	var nodeOrder []string
	slot := 0
	for i := range plans {
		pl := &plans[i]
		// A target the detector marks Suspect/Down, or one fenced off for
		// revocation, is not even queued while enough healthy targets
		// remain for the quorum: attempting it would burn the full retry
		// budget against a node that is almost certainly gone. The skip
		// counts as a transport failure, exactly as if the write had been
		// attempted and the node found unreachable.
		skips := f.fs.writeSkips(pl.nodes, pl.quorum)
		for ti, node := range pl.nodes {
			if skips != nil && skips[ti] {
				cause := errNodeUnhealthy
				if f.fs.isDraining(node) {
					f.fs.stats.fencedWrites.Add(1)
					cause = errNodeDraining
				} else {
					f.fs.stats.skippedReplicaWrites.Add(1)
				}
				results[slot].err = fmt.Errorf("%w: %s", cause, node)
				tr.phaseOp(pl.index, node, f.fs.conns.class(node), kvstore.OpStat{}, "skipped")
			} else {
				c := pl.cmd
				if pl.shards != nil {
					c = pl.shards[ti]
				}
				c.slot = slot
				results[slot].plan, results[slot].target = i, ti
				if _, ok := perNode[node]; !ok {
					nodeOrder = append(nodeOrder, node)
				}
				perNode[node] = append(perNode[node], c)
			}
			slot++
		}
	}
	bursts := splitBursts(perNode, nodeOrder, f.fs.pipeDepth)
	// Every queued target is attempted even after a failure elsewhere: a
	// down victim must not block the copies that can still land, and the
	// quorum decision needs the complete per-slot outcome.
	_ = fanoutN(f.fs.ioPar, len(bursts), func(k int) error {
		nb := bursts[k]
		replies, retried, err := f.runBurst(tr, "write", nb, nil)
		for j, c := range nb.cmds {
			res := &results[c.slot]
			res.retried = retried
			rerr := err
			if rerr == nil {
				rerr = replies[j].Err()
			}
			if rerr != nil {
				if isNoSpace(rerr) {
					f.fs.noteNoSpace(nb.node)
				}
				res.err = fmt.Errorf("memfss: %s %s on %s: %w", c.verb(), c.key, nb.node, rerr)
			} else if res.gen = replies[j].Int; res.gen == 0 && c.op == opVSet {
				// An offset VSET found no key on its slot.
				res.gen, res.err = f.vsetMoved(tr, &plans[res.plan], res.target)
			}
		}
		return nil
	})
	okPlans, firstErr := len(plans), error(nil)
	fsObs := f.fs.obs
	slot = 0
	for i := range plans {
		pl := &plans[i]
		landed, retried, split := 0, false, false
		var gen int64
		var storeErr, transErr error // first of each class in slot order
		for _, res := range results[slot : slot+len(pl.nodes)] {
			retried = retried || res.retried
			switch {
			case res.err == nil:
				// Copies that stamped different generations did not all hold
				// the same write before this one: one of them missed a write.
				split = split || (landed > 0 && res.gen != gen)
				gen = res.gen
				landed++
			case !isUnavailable(res.err):
				if storeErr == nil {
					storeErr = res.err
				}
			case transErr == nil:
				transErr = res.err
			}
		}
		slot += len(pl.nodes)
		degraded, err := f.settleWrite(landed, len(pl.nodes), pl.quorum, split, storeErr, transErr)
		if err != nil && firstErr == nil {
			okPlans, firstErr = i, err
		}
		if degraded || (err != nil && landed > 0) {
			tr.markDegraded()
			leg := tr.leg("repair-enqueue")
			f.fs.repairs.enqueue(f.path, pl.sk, pl.index, tr.traceID())
			leg.End(nil)
		}
		if err != nil && isNoSpace(err) {
			f.fs.stats.noSpaceWrites.Add(1)
		}
		switch {
		case err != nil:
			fsObs.outcome("write", "error").Inc()
		case degraded:
			fsObs.outcome("write", "degraded").Inc()
		case retried:
			fsObs.outcome("write", "retry").Inc()
		default:
			fsObs.outcome("write", "ok").Inc()
		}
	}
	return okPlans, firstErr
}

// vsetMoved lands the offset VSET of plan pl whose slot i answered that
// it holds no key: a move sent the stripe to the slot's successor, and
// the write follows it there (serve). Where no successor holds it either,
// the stripe is a hole, which the write creates on its slot with SETNX —
// a first write's header, zeros up to the offset, then the patch. A SETNX
// that loses to a racing writer repeats the VSET on the slot. It returns
// the generation the write stamped.
func (f *File) vsetMoved(tr *opTrace, pl *stripePlan, i int) (int64, error) {
	one := func(node string, c spanCmd) (int64, error) {
		replies, _, err := f.runBurst(tr, "write", nodeBurst{node: node, cmds: []spanCmd{c}}, nil)
		if err == nil {
			err = replies[0].Err()
		}
		if err == nil {
			return replies[0].Int, nil
		}
		if isNoSpace(err) {
			f.fs.noteNoSpace(node)
		}
		return 0, fmt.Errorf("memfss: %s %s on %s: %w", c.verb(), c.key, node, err)
	}
	c, gen, asked := pl.cmd, int64(0), false
	_, err := f.serve(pl.sk, i, pl.nodes, func(node string) (held bool, err error) {
		if asked { // the burst asked the slot's node
			gen, err = one(node, c)
		}
		asked = true
		return gen > 0, err
	})
	if gen > 0 || err != nil {
		return gen, err
	}
	value := make([]byte, erasure.HeaderSize+c.off+int64(len(c.data)))
	erasure.PutHeader(value, 1, c.id)
	copy(value[erasure.HeaderSize+c.off:], c.data)
	created, err := one(pl.nodes[i], spanCmd{idx: c.idx, op: opSetNX, key: c.key, n: int64(len(value)), data: value})
	if err != nil || created == 1 {
		return 1, err
	}
	if gen, err = one(pl.nodes[i], c); err == nil && gen == 0 {
		err = fmt.Errorf("memfss: VSET %s on %s: the stripe moved under the write", c.key, pl.nodes[i])
	}
	return gen, err
}

// settleWrite decides one stripe write's fate from its per-slot outcomes.
// All slots landed on copies that agree (split is false): success. Any
// store-level error: that error (it would fail identically on retry, so it
// must surface). Transport-only failures (including skipped targets), or
// copies that stamped different generations: degraded success if at least
// quorum slots persisted — one for replicas, because one landed copy keeps
// the data readable, and k for shards, because fewer than k shards of one
// write is a write nothing can read back — otherwise the first transport
// error in slot order. The degraded flag tells the caller to hand the
// stripe to the repair queue, which re-replicates, replaces or rebuilds
// what is missing or behind from the newest write.
func (f *File) settleWrite(landed, total, quorum int, split bool, storeErr, transErr error) (degraded bool, _ error) {
	switch {
	case landed == total && !split:
		return false, nil
	case storeErr != nil:
		return false, storeErr
	case landed >= quorum:
		f.fs.stats.degradedWrites.Add(1)
		return true, nil
	}
	return false, transErr
}

// errUnread is readSpans' per-span result for a span no burst has served,
// and errHedged for one whose burst the read's hedge aborted: readSpan
// replaces either.
var (
	errUnread = errors.New("memfss: span not read")
	errHedged = errors.New("memfss: span's burst aborted by the read's hedge")
)

// burstShard is one erasure data-shard read a readSpans burst carries: the
// header the reply's first bytes land in (the body lands in p), and what
// the reply gave.
type burstShard struct {
	hdr [erasure.HeaderSize]byte
	// got is the value bytes the reply gave, header included: 0 for no
	// usable reply, -1 while the read is queued and its burst has not
	// finished (never, when the hedge aborted it).
	got     int64
	retried bool // the burst carrying the read took more than one attempt
}

// readSpans fetches every span of a read from per-node bursts, each reply
// decoded straight into p (no intermediate copies), and leaves every span
// they did not serve to readSpan's gather. A span whose stripe the repair
// queue holds is the gather's from the start. Otherwise:
//   - a replicated span is one GETRANGE of its window, past the header, to
//     its first Up copy;
//   - an erasure span whose window is the whole stripe at the layout's full
//     length, in k equal shards, with every slot Up, is k GETRANGEs, one per
//     data shard, each landing in its part of the window (burstable).
//
// A replicated span is served when its reply holds the key. An erasure
// span is served only when all k replies are full-length shards of one
// write; any other outcome — a miss, an error, a short shard, mixed tags,
// an aborted burst — leaves it to the gather. Returns the leading-success
// count and the first error in span order.
func (f *File) readSpans(tr *opTrace, spans []stripe.Span, starts []int, p []byte) (int, error) {
	errs := make([]error, len(spans))
	var shards []burstShard // k per erasure span, in span order
	if f.coder != nil {
		shards = make([]burstShard, len(spans)*f.k)
	}
	perNode := make(map[string][]spanCmd)
	var nodeOrder []string
	queue := func(node string, c spanCmd) {
		if _, ok := perNode[node]; !ok {
			nodeOrder = append(nodeOrder, node)
		}
		perNode[node] = append(perNode[node], c)
	}
	for i, span := range spans {
		errs[i] = errUnread
		sk := stripe.Key(f.rec.ID, span.Index)
		if f.fs.repairs.holds(sk) {
			continue
		}
		dst := p[starts[i] : starts[i]+int(span.Length)]
		if f.coder != nil {
			targets := f.burstTargets(span, sk)
			if targets == nil {
				continue
			}
			size := int(span.Length) / f.k
			for j := 0; j < f.k; j++ {
				sh := &shards[i*f.k+j]
				sh.got = -1
				queue(targets[j], spanCmd{slot: i*f.k + j, idx: span.Index, op: opGetShard,
					key: shardKey(dataKey(sk), j), n: int64(erasure.HeaderSize + size),
					hdr: sh.hdr[:], dst: dst[j*size : (j+1)*size]})
			}
			continue
		}
		// First *healthy* target, not blindly rank 0: bursting GETRANGEs
		// at a Down primary would stall every span in the burst behind its
		// retry budget before falling back.
		targets := f.targets(sk)
		node := targets[0]
		if i := slices.IndexFunc(targets, func(n string) bool { return f.fs.nodeState(n) == health.Up }); i > 0 {
			node = targets[i]
		}
		queue(node, spanCmd{slot: i, idx: span.Index, op: opGetRange, key: dataKey(sk),
			off: erasure.HeaderSize + span.Offset, n: span.Length, dst: dst})
	}
	bursts := splitBursts(perNode, nodeOrder, f.fs.pipeDepth)
	if len(bursts) > 1 && shards != nil && f.fs.ecSpare > 0 {
		f.hedgeBursts(tr, bursts, errs, shards)
	} else {
		_ = fanoutN(f.fs.ioPar, len(bursts), func(k int) error {
			replies, retried, err := f.runBurst(tr, "read", bursts[k], nil)
			f.recordBurst(errs, shards, bursts[k], replies, retried, err)
			return nil
		})
	}
	for i := 0; shards != nil && i < len(spans); i++ {
		sh := shards[i*f.k : (i+1)*f.k]
		if retried, ok := oneWrite(sh, spans[i].Length/int64(f.k)); ok {
			errs[i] = nil
			f.fs.obs.outcome("read", readOutcome(retried)).Inc()
		} else if slices.ContainsFunc(sh, func(s burstShard) bool { return s.got < 0 }) {
			errs[i] = errHedged
		}
	}
	if slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		_ = fanoutN(f.fs.ioPar, len(spans), func(i int) error {
			if errs[i] != nil { // a span the burst served costs nothing here
				errs[i] = f.readSpan(tr, spans[i], p[starts[i]:starts[i]+int(spans[i].Length)], errs[i] == errHedged)
			}
			return nil
		})
	}
	return leadingOK(errs)
}

// burstTargets returns the slots of stripe sk when readSpans' bursts may
// serve its erasure span, else nil: the window is the whole stripe, the
// stripe is at the layout's full length — a shorter one may sit on
// shards written for a longer stripe, which a fixed-length read cannot
// tell — the k data shards are of equal length, and every slot's node is
// Up, so the data shards are the ones to ask and nothing the gather would
// note for repair is off.
func (f *File) burstTargets(span stripe.Span, sk string) []string {
	if span.Offset != 0 || span.Length != f.layout.Size() || span.Length%int64(f.k) != 0 {
		return nil
	}
	targets := f.targets(sk)
	for _, node := range targets {
		if f.fs.nodeState(node) != health.Up {
			return nil
		}
	}
	return targets
}

// oneWrite reports whether an erasure span's k data-shard replies serve
// it: every reply a full-length shard (size body bytes), every header
// parseable and all of one (generation, write ID) — the gather's winner
// rule, checked on the bytes the store returned. retried reports whether
// any of them took a retry.
func oneWrite(shards []burstShard, size int64) (retried, ok bool) {
	var tag [2]uint64
	for j := range shards {
		sh := &shards[j]
		if sh.got != erasure.HeaderSize+size {
			return false, false
		}
		gen, id, _, err := erasure.ParseShard(sh.hdr[:])
		if err != nil || (j > 0 && [2]uint64{gen, id} != tag) {
			return false, false
		}
		tag, retried = [2]uint64{gen, id}, retried || sh.retried
	}
	return retried, true
}

// recordBurst files one finished readSpans burst's replies into errs (a
// replicated span: nil once served) and shards (an erasure data-shard
// read: what its reply gave). Each span's commands ride bursts of their
// own, so two bursts write disjoint entries and disjoint regions of p.
func (f *File) recordBurst(errs []error, shards []burstShard, nb nodeBurst, replies []*kvstore.Reply, retried bool, err error) {
	for j, c := range nb.cmds {
		// An absent key (moved to a successor, or a hole), an error reply
		// or a failed burst leaves the span to readSpan.
		served := err == nil && replies[j].Err() == nil && !replies[j].Nil
		if c.op == opGetShard {
			shards[c.slot].got, shards[c.slot].retried = 0, retried
			if served {
				shards[c.slot].got = replies[j].Int
			}
			continue
		}
		if !served {
			continue
		}
		// The payload is already in place (Bulk aliases c.dst), and a short
		// stripe reads as zeros past its end.
		clear(c.dst[len(replies[j].Bulk):])
		errs[c.slot] = nil
		f.fs.obs.outcome("read", readOutcome(retried)).Inc()
	}
}

// readOutcome names a served span's read outcome.
func readOutcome(retried bool) string {
	if retried {
		return "retry"
	}
	return "ok"
}

// hedgeBursts runs an erasure read's bursts, IOParallelism at a time,
// and records each finished one on this goroutine. Once no more bursts
// are out than the read has spares (ReadSpare) and they have taken
// hedgeDelay longer, it aborts them and returns as soon as none of them
// can write p any more; their spans fall to the gather, which fetches the
// spares and counts each span's slow hedge. Their replies are never
// recorded, so nothing they read is trusted.
func (f *File) hedgeBursts(tr *opTrace, bursts []nodeBurst, errs []error, shards []burstShard) {
	type result struct {
		k       int
		replies []*kvstore.Reply
		retried bool
		err     error
	}
	// Buffered for every burst, so an aborted one can always deliver and exit.
	done := make(chan result, len(bursts))
	abort := new(kvstore.Abort)
	launched, finished := 0, 0
	launch := func() {
		for ; launched < len(bursts) && launched-finished < f.fs.ioPar; launched++ {
			go func(k int) {
				r := result{k: k}
				r.replies, r.retried, r.err = f.runBurst(tr, "read", bursts[k], abort)
				done <- r
			}(launched)
		}
	}
	start := time.Now()
	launch()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for finished < len(bursts) {
		if timer == nil && len(bursts)-finished <= f.fs.ecSpare {
			timer = time.NewTimer(hedgeDelay(time.Since(start)))
		}
		var expired <-chan time.Time
		if timer != nil {
			expired = timer.C
		}
		select {
		case r := <-done:
			finished++
			f.recordBurst(errs, shards, bursts[r.k], r.replies, r.retried, r.err)
			launch()
		case <-expired:
			abort.Abort()
			tr.hedgeLeg(-1, time.Since(start), "slow")
			return
		}
	}
}
