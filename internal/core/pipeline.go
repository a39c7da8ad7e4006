package core

import (
	"fmt"
	"sync"

	"memfss/internal/kvstore"
	"memfss/internal/stripe"
)

// This file holds the batched data paths: multi-stripe writes and reads
// are grouped per target node, split into PipelineDepth-sized bursts, and
// the bursts shipped as wire pipelines — IOParallelism bursts in flight at
// once, each on its own pooled connection. The per-span engines in file.go
// serve single-span operations and everything the bursts cannot (erasure
// coding, probe reads, lazy repair).

// spanCmd pairs one queued store command with the span it serves. It is
// typed rather than a pre-marshaled [][]byte so queueing encodes straight
// into the pipeline's wire tape: write payloads and read destinations are
// referenced zero-copy and must stay valid until the burst completes.
type spanCmd struct {
	span int  // index into the operation's span slice
	op   byte // opSet, opSetRange, or opGetRange
	key  string
	off  int64  // SETRANGE/GETRANGE offset
	n    int64  // payload/read bytes, for victim throttling
	data []byte // write payload (opSet, opSetRange)
	dst  []byte // read destination (opGetRange); len(dst) == n
}

const (
	opSet byte = iota
	opSetRange
	opGetRange
)

func (c *spanCmd) verb() string {
	switch c.op {
	case opSet:
		return "SET"
	case opSetRange:
		return "SETRANGE"
	default:
		return "GETRANGE"
	}
}

// queue encodes the command into a pipeline.
func (c *spanCmd) queue(pl *kvstore.Pipeline) {
	switch c.op {
	case opSet:
		pl.Set(c.key, c.data)
	case opSetRange:
		pl.SetRange(c.key, c.off, c.data)
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
	var bursts []nodeBurst
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

// runBurst throttles and ships one burst, handing each command's reply
// (or the burst-level transport error) to done. The burst lands in the
// trace as one phase (stripe -1): per-stripe attribution inside a wire
// pipeline is meaningless, but the node, class, attempt count, and burst
// duration are exactly what a slow multi-stripe op needs named.
func (f *File) runBurst(tr *opTrace, nb nodeBurst, done func(c spanCmd, r *kvstore.Reply, err error)) {
	cli, err := f.fs.conns.client(nb.node)
	if err == nil {
		var total int64
		for _, c := range nb.cmds {
			total += c.n
		}
		err = f.fs.conns.throttle(nb.node).Take(total)
	}
	if err != nil {
		tr.phase(-1, nb.node, f.fs.conns.class(nb.node), 0, 0, "error")
		for _, c := range nb.cmds {
			done(c, nil, err)
		}
		return
	}
	pl := cli.Pipeline()
	for i := range nb.cmds {
		nb.cmds[i].queue(pl)
	}
	var st kvstore.OpStat
	replies, err := pl.RunStat(&st)
	tr.phaseOp(-1, nb.node, f.fs.conns.class(nb.node), st,
		phaseOutcome(err, st.Attempts))
	if err != nil {
		for _, c := range nb.cmds {
			done(c, nil, err)
		}
		return
	}
	for j, r := range replies {
		done(nb.cmds[j], r, nil)
	}
}

// writeSpansPipelined stores every span on all of its targets using
// pipelined bursts. Mirroring runSpans, it returns how many leading
// spans succeeded and the first error in span order. Per-span success is
// decided by the same degraded-quorum rule as writeSpan: every replica is
// attempted, store-level errors fail the span, and transport-only
// failures downgrade to degraded success when writeQuorum replicas
// landed.
func (f *File) writeSpansPipelined(tr *opTrace, spans []stripe.Span, starts []int, p []byte) (int, error) {
	perNode := make(map[string][]spanCmd)
	var nodeOrder []string
	replicas := make([]int, len(spans))
	sks := make([]string, len(spans))
	skipped := make([]int, len(spans))
	for i, span := range spans {
		f.fs.stats.stripeWrites.Add(1)
		sk := stripe.Key(f.rec.ID, span.Index)
		sks[i] = sk
		key := dataKey(sk)
		data := p[starts[i] : starts[i]+int(span.Length)]
		cmd := spanCmd{span: i, key: key, n: int64(len(data)), data: data}
		if span.Offset == 0 && span.Length == f.layout.Size() {
			cmd.op = opSet
		} else {
			cmd.op = opSetRange
			cmd.off = span.Offset
		}
		// Same skip rule as writeSpan: replicas the detector marks
		// Suspect/Down are not even queued when enough healthy targets
		// remain for the quorum — no commands, no retries, no backoff.
		targets := f.targets(sk)
		skips := f.fs.replicaSkips(targets)
		for ti, node := range targets {
			replicas[i]++
			if skips != nil && skips[ti] {
				if f.fs.isDraining(node) {
					f.fs.stats.fencedWrites.Add(1)
				} else {
					f.fs.stats.skippedReplicaWrites.Add(1)
				}
				skipped[i]++
				continue
			}
			if _, ok := perNode[node]; !ok {
				nodeOrder = append(nodeOrder, node)
			}
			perNode[node] = append(perNode[node], cmd)
		}
	}
	bursts := splitBursts(perNode, nodeOrder, f.fs.pipeDepth)

	// A span's replicas land in different bursts, so outcomes funnel
	// through one mutex; storeErr/transErr keep the first error of each
	// class per span for the quorum decision.
	outcomes := make([]struct {
		failed   int
		storeErr error
		transErr error
	}, len(spans))
	var mu sync.Mutex
	fail := func(span int, err error) {
		mu.Lock()
		o := &outcomes[span]
		o.failed++
		if isUnavailable(err) {
			if o.transErr == nil {
				o.transErr = err
			}
		} else if o.storeErr == nil {
			o.storeErr = err
		}
		mu.Unlock()
	}
	_ = fanoutN(f.fs.ioPar, len(bursts), func(k int) error {
		nb := bursts[k]
		f.runBurst(tr, nb, func(c spanCmd, r *kvstore.Reply, err error) {
			if err != nil {
				fail(c.span, fmt.Errorf("memfss: pipeline to %s: %w", nb.node, err))
				return
			}
			if rerr := r.Err(); rerr != nil {
				if isNoSpace(rerr) {
					f.fs.noteNoSpace(nb.node)
				}
				fail(c.span, fmt.Errorf("memfss: %s %s on %s: %w",
					c.verb(), c.key, nb.node, rerr))
			}
		})
		return nil
	})
	fsObs := f.fs.obs
	for i := range spans {
		o := outcomes[i]
		// Detector-skipped replicas count as transport failures for the
		// quorum decision, exactly as if the write had been attempted and
		// the node found unreachable.
		failed := o.failed + skipped[i]
		var err error
		switch {
		case failed == 0:
			fsObs.outcome("write", "ok").Inc()
		case o.storeErr != nil:
			err = o.storeErr
			if isNoSpace(err) {
				f.fs.stats.noSpaceWrites.Add(1)
			}
		case replicas[i] > 1 && replicas[i]-failed >= f.fs.writeQuorum:
			f.fs.stats.degradedWrites.Add(1)
			tr.markDegraded()
			leg := tr.leg("repair-enqueue")
			f.fs.enqueueRepair(f.path, sks[i], spans[i].Index, tr.traceID())
			leg.End(nil)
			fsObs.outcome("write", "degraded").Inc()
		default:
			err = o.transErr
			if err == nil {
				// Every failure was a detector skip (possible only when the
				// quorum knob exceeds the healthy count mid-evaluation).
				err = fmt.Errorf("%w: replica write quorum unmet", errNodeUnhealthy)
			}
		}
		if err != nil {
			fsObs.outcome("write", "error").Inc()
			return i, err
		}
	}
	return len(spans), nil
}

// readSpansPipelined fetches every span from its primary target in
// pipelined GETRANGE bursts decoded straight into p (no intermediate
// copies), then falls back to the per-span probe path (readSpanInto) for
// anything the fast path misses: absent keys (strays or holes), error
// replies, or an unreachable primary. The probe fallback keeps the
// lazy-repair semantics of paper §V-C intact. Returns the
// leading-success count and the first error in span order, like
// runSpans.
func (f *File) readSpansPipelined(tr *opTrace, spans []stripe.Span, starts []int, p []byte) (int, error) {
	perNode := make(map[string][]spanCmd)
	var nodeOrder []string
	for i, span := range spans {
		sk := stripe.Key(f.rec.ID, span.Index)
		dst := p[starts[i] : starts[i]+int(span.Length)]
		cmd := spanCmd{span: i, op: opGetRange, key: dataKey(sk),
			off: span.Offset, n: span.Length, dst: dst}
		// First *healthy* target, not blindly rank 0: bursting GETRANGEs
		// at a Down primary would stall every span in the burst behind its
		// retry budget before falling back.
		node := f.fs.healthOrder(f.targets(sk))[0]
		if _, ok := perNode[node]; !ok {
			nodeOrder = append(nodeOrder, node)
		}
		perNode[node] = append(perNode[node], cmd)
	}
	bursts := splitBursts(perNode, nodeOrder, f.fs.pipeDepth)

	// Each span appears in exactly one burst, so the burst goroutines
	// write disjoint done entries and disjoint regions of p (each span's
	// reply decodes into its own dst window).
	done := make([]bool, len(spans))
	_ = fanoutN(f.fs.ioPar, len(bursts), func(k int) error {
		f.runBurst(tr, bursts[k], func(c spanCmd, r *kvstore.Reply, err error) {
			if err != nil || r.Err() != nil || r.Nil {
				return // stray, hole, or store trouble: the probe decides
			}
			// The payload is already in place (r.Bulk aliases c.dst);
			// a short stripe reads as zeros past its end.
			clear(c.dst[len(r.Bulk):])
			done[c.span] = true
		})
		return nil
	})

	var fallback []int
	for i := range spans {
		if done[i] {
			f.fs.stats.stripeReads.Add(1)
			f.fs.obs.outcome("read", "ok").Inc()
		} else {
			fallback = append(fallback, i)
		}
	}
	errs := make([]error, len(spans))
	if len(fallback) > 0 {
		_ = fanoutN(f.fs.ioPar, len(fallback), func(k int) error {
			i := fallback[k]
			if err := f.readSpanInto(tr, spans[i], p[starts[i]:starts[i]+int(spans[i].Length)]); err != nil {
				errs[i] = err
			}
			return nil
		})
	}
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return len(spans), nil
}
