package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"memfss/internal/erasure"
	"memfss/internal/fsmeta"
	"memfss/internal/health"
	"memfss/internal/hrw"
	"memfss/internal/kvstore"
	"memfss/internal/obs"
	"memfss/internal/stripe"
)

// replayer measures the layers from outside. After a sampled user op it
// calls each layer's public functions again on that op's real inputs —
// the path through fsmeta, the (offset, length) through stripe, the
// stripe keys through hrw, the payload through erasure, stripe-sized
// values through a kvstore client and server of its own — under child
// spans of the op. What the op took beyond the replayed layer calls is
// core's own share: glue, scheduling and waiting. The replay is serial,
// where core overlaps stripe transfers, so on a machine with idle cores a
// layer's share can exceed what it really cost the op.
type replayer struct {
	tr     *tracer
	sp     *spec
	layout stripe.Layout
	placer *hrw.Placer
	copies int
	coder  *erasure.Coder

	// The scratch store: one server reached over loopback like a real
	// node, and one bare engine for the cost without the wire.
	srv    *kvstore.Server
	cli    *kvstore.Client
	engine *kvstore.Store

	record  *fsmeta.Record // a file record shaped like this deployment's
	encoded []byte
	det     *health.Detector
	hist    *obs.Histogram

	stripeVal []byte // one stripe of random bytes
	dst       []byte // read destination, one stripe

	// perCall holds, per span name, the cost of one layer call in ns per
	// span; calls counts the layer calls made under that name.
	perCall map[string][]float64
	calls   map[string]int
	// stripeSpans counts stripe spans over all replayed data calls.
	stripeSpans int
	sums        shareSums
}

// scratchKeys is how many stripe-sized values the scratch store holds:
// more than the spans of the largest op (8 MiB over 1 MiB stripes, plus
// one for a misaligned start).
const scratchKeys = 10

func scratchKey(i int) string { return fmt.Sprintf("data:scratch#%d", i%scratchKeys) }

func newReplayer(e *env, tr *tracer) (*replayer, error) {
	sp := e.sp
	r := &replayer{tr: tr, sp: sp, copies: 1, perCall: map[string][]float64{}, calls: map[string]int{},
		sums: shareSums{layerNs: map[string]int64{}}}
	var err error
	if r.layout, err = stripe.NewLayout(sp.stripe); err != nil {
		return nil, err
	}
	if r.placer, err = hrw.NewPlacer(e.classes...); err != nil {
		return nil, err
	}
	fileRec := &fsmeta.FileRecord{ID: "f-1", Size: int64(sp.fileSize), StripeSize: sp.stripe, Replicas: 1}
	switch {
	case sp.red.DataShards > 0:
		if r.coder, err = erasure.NewCoder(sp.red.DataShards, sp.red.ParityShards); err != nil {
			return nil, err
		}
		r.copies = sp.red.DataShards + sp.red.ParityShards
		fileRec.Replicas, fileRec.DataShards, fileRec.ParityShards = 0, sp.red.DataShards, sp.red.ParityShards
	case sp.red.Replicas > 1:
		r.copies = sp.red.Replicas
		fileRec.Replicas = sp.red.Replicas
	}
	for _, c := range e.classes {
		fileRec.Classes = append(fileRec.Classes, fsmeta.ClassSnapshot{Name: c.Name, Weight: c.Weight, Nodes: c.Nodes})
	}
	r.record = &fsmeta.Record{File: fileRec}
	if r.encoded, err = r.record.Encode(); err != nil {
		return nil, err
	}

	r.engine = kvstore.NewStore(0)
	r.srv = kvstore.NewServer(kvstore.NewStore(0), password)
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.cli = kvstore.Dial(addr, kvstore.DialOptions{Password: password})

	r.stripeVal = make([]byte, sp.stripe)
	rand.New(rand.NewSource(1)).Read(r.stripeVal)
	r.dst = make([]byte, sp.stripe)
	for i := 0; i < scratchKeys; i++ {
		if err := r.cli.Set(scratchKey(i), r.stripeVal); err != nil {
			r.close()
			return nil, err
		}
	}
	if r.coder != nil {
		data := r.coder.Split(r.stripeVal)
		parity, err := r.coder.Encode(data)
		if err != nil {
			r.close()
			return nil, err
		}
		for i, s := range append(data, parity...) {
			if err := r.cli.Set(shardScratchKey(i), erasure.WrapShard(1, 1, s)); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	probe := r.stripeVal[:sp.probeBytes]
	if err := r.cli.Set("probe:v", probe); err != nil {
		r.close()
		return nil, err
	}
	if err := r.engine.Set("probe:v", probe); err != nil {
		r.close()
		return nil, err
	}
	r.det = health.New(health.Options{})
	r.det.Register("own-0")
	r.hist = obs.NewHistogram(obs.DefLatencyBuckets)
	return r, nil
}

func shardScratchKey(i int) string { return fmt.Sprintf("data:scratch#0/s%d", i) }

func (r *replayer) close() {
	r.cli.Close()
	r.srv.Close()
}

// timed runs fn under a child span and records its cost per call, calls
// being how many layer calls fn makes. It returns the span's duration.
func (r *replayer) timed(parent int32, client int, name string, calls int, fn func()) int64 {
	sp := r.tr.begin(parent, client, name)
	t0 := time.Now()
	fn()
	d := int64(time.Since(t0))
	r.tr.end(sp)
	if calls > 0 {
		r.perCall[name] = append(r.perCall[name], float64(d)/float64(calls))
		r.calls[name] += calls
	}
	return d
}

// shareSums accumulates where the time of the sampled ops went. For each
// op the base is its wall time or the serial time of its replayed layer
// calls, whichever is larger: core overlaps stripe transfers and replica
// writes, so the layers' serial work can exceed the op's wall time. Shares
// of the base are all within [0, 1] and sum to 1; replayNs over opNs tells
// how much layer work core's concurrency hid.
type shareSums struct {
	ops      int
	opNs     int64            // wall time of the ops
	replayNs int64            // serial time of their replayed layer calls
	baseNs   int64            // Σ max(op, replay)
	layerNs  map[string]int64 // replay time by layer
	selfNs   int64            // Σ max(0, op - replay): glue, scheduling, waiting
	// encodeNs over writeBaseNs is erasure encode's share of write ops.
	encodeNs, writeBaseNs int64
}

// layers are the modules a replay attributes time to; what is left is
// core's own.
var layers = []string{"hrw", "stripe", "fsmeta", "erasure", "kvstore"}

// replay re-enacts one user op's layer calls under a "replay" child of
// its root span, then runs the fixed probes under a "probe" child.
func (r *replayer) replay(root int32, client int, calls []coreCall, opNs int64) {
	sums := &r.sums
	rp := r.tr.begin(root, client, "replay")
	var total, encode int64
	t := func(name string, n int, fn func()) int64 {
		d := r.timed(rp, client, name, n, fn)
		sums.layerNs[name[:strings.IndexByte(name, '.')]] += d
		total += d
		return d
	}
	wrote := false
	for _, cc := range calls {
		switch cc.op {
		case "writeat":
			wrote = true
			encode += r.data(cc, t)
		case "readat":
			r.data(cc, t)
		default:
			r.meta(cc, t)
		}
	}
	r.tr.end(rp)
	base := opNs
	if total > base {
		base = total
	}
	sums.ops++
	sums.opNs += opNs
	sums.replayNs += total
	sums.baseNs += base
	sums.selfNs += base - total
	if wrote {
		sums.encodeNs += encode
		sums.writeBaseNs += base
	}

	pr := r.tr.begin(root, client, "probe")
	path := "/"
	if len(calls) > 0 {
		path = calls[0].path
	}
	r.probe(pr, client, path)
	r.tr.end(pr)
}

// timeFn is replay's span-and-attribute wrapper around timed.
type timeFn func(name string, calls int, fn func()) int64

// data replays one WriteAt or ReadAt and returns the erasure encode time.
func (r *replayer) data(cc coreCall, t timeFn) (encodeNs int64) {
	var spans []stripe.Span
	t("stripe.spans", 1, func() { spans, _ = r.layout.Spans(cc.off, cc.n) })
	r.stripeSpans += len(spans)
	id := fmt.Sprintf("f-%d", cc.fileID)
	t("hrw.place", len(spans), func() {
		for _, s := range spans {
			r.placer.PlaceK(stripe.Key(id, s.Index), r.copies)
		}
	})
	switch {
	case r.coder != nil && cc.write:
		for range spans {
			var all [][]byte
			encodeNs += t("erasure.encode", 1, func() {
				data := r.coder.Split(r.stripeVal)
				parity, _ := r.coder.Encode(data)
				all = append(data, parity...)
			})
			t("erasure.wrap", len(all), func() {
				for i := range all {
					all[i] = erasure.WrapShard(2, 2, all[i])
				}
			})
			t("kvstore.set", len(all), func() {
				for i := range all {
					_ = r.cli.Set(shardScratchKey(i), all[i])
				}
			})
		}
	case r.coder != nil:
		k := r.coder.K()
		recon := cc.ecRecon
		for range spans {
			got := make([][]byte, k+r.coder.M())
			t("kvstore.get", k+1, func() {
				for i := 0; i <= k; i++ {
					got[i], _, _ = r.cli.Get(shardScratchKey(i))
				}
			})
			t("erasure.parse", k+1, func() {
				for i := 0; i <= k; i++ {
					_, _, got[i], _ = erasure.ParseShard(got[i])
				}
			})
			if recon > 0 {
				// A read that lost the race for, or never had, one data
				// shard rebuilds it from the other k.
				recon--
				got[0] = nil
				t("erasure.reconstruct", 1, func() { got, _ = r.coder.Reconstruct(got) })
			}
			t("erasure.join", 1, func() { _, _ = r.coder.Join(got[:k], len(r.stripeVal)) })
		}
	case cc.write && len(spans) > 1:
		// core ships multi-stripe writes as pipelined bursts.
		pl := r.cli.Pipeline()
		for i, s := range spans {
			for c := 0; c < r.copies; c++ {
				if s.Offset == 0 && s.Length == r.layout.Size() {
					pl.Set(scratchKey(i), r.stripeVal)
				} else {
					pl.SetRange(scratchKey(i), s.Offset, r.stripeVal[:s.Length])
				}
			}
		}
		t("kvstore.pipeline_set", pl.Len(), func() { _, _ = pl.Run() })
	case cc.write:
		for i, s := range spans {
			t("kvstore.set", r.copies, func() {
				for c := 0; c < r.copies; c++ {
					if s.Offset == 0 && s.Length == r.layout.Size() {
						_ = r.cli.Set(scratchKey(i), r.stripeVal)
					} else {
						_ = r.cli.SetRange(scratchKey(i), s.Offset, r.stripeVal[:s.Length])
					}
				}
			})
		}
	case len(spans) > 1:
		pl := r.cli.Pipeline()
		for i, s := range spans {
			pl.GetRangeInto(scratchKey(i), s.Offset, s.Length, r.dst[:s.Length])
		}
		t("kvstore.pipeline_get", pl.Len(), func() { _, _ = pl.Run() })
	default:
		for i, s := range spans {
			t("kvstore.get_into", 1, func() {
				_, _, _ = r.cli.GetRangeInto(scratchKey(i), s.Offset, s.Length, r.dst[:s.Length])
			})
		}
	}
	return encodeNs
}

// meta replays one namespace call: the path is cleaned, records are
// decoded and encoded as often as the call reads and writes them, and the
// store ops the call was counted to make are issued as record-sized SETs.
func (r *replayer) meta(cc coreCall, t timeFn) {
	t("fsmeta.clean", 1, func() { _, _ = fsmeta.Clean(cc.path) })
	decodes, encodes := 1, 0
	if cc.write {
		encodes = 1
	}
	if cc.entries > 0 {
		decodes = cc.entries
	}
	t("fsmeta.decode", decodes, func() {
		for i := 0; i < decodes; i++ {
			_, _ = fsmeta.Decode(r.encoded)
		}
	})
	if encodes > 0 {
		t("fsmeta.encode", encodes, func() { _, _ = r.record.Encode() })
	}
	if cc.storeOps > 0 {
		t("kvstore.meta_op", int(cc.storeOps), func() {
			for i := int64(0); i < cc.storeOps; i++ {
				_ = r.cli.Set("meta:scratch", r.encoded)
			}
		})
	}
}

// probeReps is how many calls a probe of a nanosecond-scale function
// times in one span.
const probeReps = 1000

// probe times fixed layer calls once per sampled op, so every workload
// reports them whether or not its ops exercise them. Their span names
// carry a "probe/" prefix: a probe is not part of the op's replay.
func (r *replayer) probe(parent int32, client int, path string) {
	val := r.stripeVal[:r.sp.probeBytes]
	n := int64(len(val))
	t := func(name string, calls int, fn func()) { r.timed(parent, client, name, calls, fn) }
	t("probe/kvstore.rtt", 1, func() { _ = r.cli.Set("probe:rtt", val[:1]) })
	t("probe/kvstore.set", 1, func() { _ = r.cli.Set("probe:v", val) })
	t("probe/kvstore.get_into", 1, func() { _, _, _ = r.cli.GetRangeInto("probe:v", 0, n, r.dst[:n]) })
	t("probe/kvstore.store_set", 1, func() { _ = r.engine.Set("probe:v", val) })
	t("probe/kvstore.store_get", 1, func() { _, _, _ = r.engine.GetRangeAppend(r.dst[:0], "probe:v", 0, n) })
	t("probe/fsmeta.clean", 1, func() { _, _ = fsmeta.Clean(path) })
	t("probe/fsmeta.encode", 1, func() { _, _ = r.record.Encode() })
	t("probe/fsmeta.decode", 1, func() { _, _ = fsmeta.Decode(r.encoded) })
	t("probe/health.report", probeReps, func() {
		for i := 0; i < probeReps; i++ {
			r.det.ReportSuccess("own-0")
		}
	})
	t("probe/obs.observe", probeReps, func() {
		for i := 0; i < probeReps; i++ {
			r.hist.Observe(137 * time.Microsecond)
		}
	})
}
