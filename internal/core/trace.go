package core

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfss/internal/kvstore"
	"memfss/internal/obs"
	"memfss/internal/obs/trace"
)

// This file holds the FileSystem-level telemetry beyond plain counters:
// end-to-end and per-stripe latency histograms, span outcome counters,
// and per-operation tracing. Each WriteAt/ReadAt carries an *opTrace
// down through its spans to the retry layer; phases record
// which node served which stripe, in which class, with how many
// connection attempts, and how long it took. Operations slower than the
// configured threshold emit one structured log line naming all of it —
// the "where did my write spend its time" answer the paper's
// per-node-class evaluation needs.

// fsObs bundles the FileSystem-level telemetry on top of its registry.
type fsObs struct {
	reg *obs.Registry

	// tracer retains span trees under tail-based sampling; journal is the
	// always-on flight recorder for cluster events. nodeErr remembers, per
	// node, the last trace that witnessed a store-op failure against it so
	// health transitions can link back to the operation that saw the node
	// die first.
	tracer  *trace.Tracer
	journal *trace.Journal
	nodeErr sync.Map // node -> trace.ID

	writeSeconds *obs.Histogram // memfss_fs_op_seconds{op="write"}
	readSeconds  *obs.Histogram // memfss_fs_op_seconds{op="read"}

	// Per-stripe store-operation latency split by node class — the
	// own-vs-victim distribution behind the paper's Figures 5-9.
	stripeWriteOwn    *obs.Histogram
	stripeWriteVictim *obs.Histogram
	stripeReadOwn     *obs.Histogram
	stripeReadVictim  *obs.Histogram

	// ecRebuild is the Reed-Solomon reconstruction cost on degraded
	// erasure reads — the CPU price of racing reconstruction instead of
	// waiting for a straggler shard.
	ecRebuild *obs.Histogram
	// ecEncode is the Reed-Solomon encode cost of each erasure stripe
	// write (memfss_fs_ec_encode_seconds).
	ecEncode *obs.Histogram

	outcomes   sync.Map // "op/outcome" -> *obs.Counter (memfss_fs_span_outcomes_total)
	slowOps    sync.Map // op -> *obs.Counter (memfss_fs_slow_ops_total)
	slowThr    time.Duration
	logf       func(format string, args ...any)
	evacKeys   *obs.Counter
	evacs      *obs.Counter
	evacForced *obs.Counter
	evacAtRisk *obs.Counter
	evacDefer  *obs.Counter
	drains     *obs.Counter
	evacPhases sync.Map // phase -> *obs.Histogram (memfss_fs_evac_phase_seconds)
	scrubChk   *obs.Counter
	scrubRest  *obs.Counter
	// lastCensus is the last census from "/" (nil before one), which the
	// memfss_fs_{short_stripes,stray_keys,orphan_stripes,census_age_seconds}
	// gauges read.
	lastCensus atomic.Pointer[CensusReport]
}

// newFSObs builds the telemetry bundle on reg.
func newFSObs(reg *obs.Registry, pol ObsPolicy) *fsObs {
	const opHelp = "End-to-end WriteAt/ReadAt latency."
	const stripeHelp = "Per-stripe store operation latency by node class."
	o := &fsObs{
		reg:          reg,
		writeSeconds: reg.Histogram("memfss_fs_op_seconds", opHelp, obs.L("op", "write"), nil),
		readSeconds:  reg.Histogram("memfss_fs_op_seconds", opHelp, obs.L("op", "read"), nil),
		stripeWriteOwn: reg.Histogram("memfss_fs_stripe_seconds", stripeHelp,
			obs.L("op", "write", "class", "own"), nil),
		stripeWriteVictim: reg.Histogram("memfss_fs_stripe_seconds", stripeHelp,
			obs.L("op", "write", "class", "victim"), nil),
		stripeReadOwn: reg.Histogram("memfss_fs_stripe_seconds", stripeHelp,
			obs.L("op", "read", "class", "own"), nil),
		stripeReadVictim: reg.Histogram("memfss_fs_stripe_seconds", stripeHelp,
			obs.L("op", "read", "class", "victim"), nil),
		ecRebuild: reg.Histogram("memfss_fs_ec_reconstruct_seconds",
			"Reed-Solomon reconstruction latency on degraded erasure reads.", nil, nil),
		ecEncode: reg.Histogram("memfss_fs_ec_encode_seconds",
			"Reed-Solomon encode latency per erasure stripe write (payload copy, parity, shard headers).", nil, nil),
		evacKeys: reg.Counter("memfss_fs_evacuated_keys_total",
			"Data keys drained off evacuating victim nodes.", nil),
		evacs: reg.Counter("memfss_fs_evacuations_total",
			"Victim node evacuations completed.", nil),
		evacForced: reg.Counter("memfss_fs_evac_forced_releases_total",
			"Evacuations that hit their deadline and force-released the node.", nil),
		evacAtRisk: reg.Counter("memfss_fs_evac_at_risk_keys_total",
			"Data keys flushed by forced releases before a copy was confirmed elsewhere.", nil),
		evacDefer: reg.Counter("memfss_fs_evac_deferred_keys_total",
			"Unresolved keys an evacuation handed to the repair queue instead of moving inline.", nil),
		drains: reg.Counter("memfss_fs_partial_drains_total",
			"Soft-pressure partial drains completed (node stays registered).", nil),
		scrubChk: reg.Counter("memfss_scrub_stripes_checked_total",
			"Stripes whose slot headers a census (Fsck, Scrub, RepairFile, the repair queue's pass) gathered.", nil),
		scrubRest: reg.Counter("memfss_scrub_restored_total",
			"Replica copies or shards rewritten by census passes (Scrub, RepairFile, the repair queue's).", nil),
		slowThr: pol.SlowOpThreshold,
		logf:    pol.Logf,
	}
	if o.slowThr == 0 {
		o.slowThr = time.Second
	}
	if o.logf == nil {
		o.logf = log.Printf
	}
	o.tracer = trace.New(trace.Config{
		SampleEvery:   pol.TraceSampleEvery,
		SlowThreshold: o.slowThr,
	})
	o.journal = trace.NewJournal(0)
	census := func(name, help string, v func(c *CensusReport) float64) {
		reg.Gauge(name, help+" (-1 before the first).", nil, func() float64 {
			if c := o.lastCensus.Load(); c != nil {
				return v(c)
			}
			return -1
		})
	}
	census("memfss_fs_short_stripes", "Readable stripes below full redundancy at the last census of the namespace", func(c *CensusReport) float64 { return float64(c.Short) })
	census("memfss_fs_stray_keys", "Data keys of live files no read asks for, at the last census of the namespace", func(c *CensusReport) float64 { return float64(c.StrayKeys) })
	census("memfss_fs_orphan_stripes", "Data keys of no live file at the last census of the namespace", func(c *CensusReport) float64 { return float64(c.OrphanStripes) })
	census("memfss_fs_census_age_seconds", "Seconds since the last census of the namespace ended", func(c *CensusReport) float64 { return time.Since(c.ended).Seconds() })
	reg.Gauge("memfss_events_dropped",
		"Flight-recorder events overwritten by newer ones; /debug/events no longer shows them.",
		nil, func() float64 { return float64(o.journal.Dropped()) })
	// Pre-register the outcome and slow-op families so /metrics shows
	// them before any traffic — including the degraded outcomes, so
	// dashboards can alert on them from zero instead of discovering the
	// series mid-incident.
	o.outcome("write", "ok")
	o.outcome("read", "ok")
	o.outcome("write", "degraded")
	o.outcome("read", "degraded")
	o.slowCounter("write")
	o.slowCounter("read")
	return o
}

// stripeHist resolves the per-stripe histogram for an op ("write"/"read")
// and class.
func (o *fsObs) stripeHist(op, class string) *obs.Histogram {
	if op == "write" {
		if class == "victim" {
			return o.stripeWriteVictim
		}
		return o.stripeWriteOwn
	}
	if class == "victim" {
		return o.stripeReadVictim
	}
	return o.stripeReadOwn
}

// outcome resolves (registering lazily) the span-outcome counter for
// op in write|read and outcome in ok|retry|degraded|error.
func (o *fsObs) outcome(op, outcome string) *obs.Counter {
	key := op + "/" + outcome
	if c, ok := o.outcomes.Load(key); ok {
		return c.(*obs.Counter)
	}
	c := o.reg.Counter("memfss_fs_span_outcomes_total",
		"Span-level results of WriteAt/ReadAt stripe operations.",
		obs.L("op", op, "outcome", outcome))
	o.outcomes.Store(key, c)
	return c
}

// evacPhase resolves (registering lazily) the duration histogram for one
// evacuation phase in fence|drain|detach|sweep|release.
func (o *fsObs) evacPhase(phase string) *obs.Histogram {
	if h, ok := o.evacPhases.Load(phase); ok {
		return h.(*obs.Histogram)
	}
	h := o.reg.Histogram("memfss_fs_evac_phase_seconds",
		"Wall time spent in each phase of a node evacuation.",
		obs.L("phase", phase), nil)
	o.evacPhases.Store(phase, h)
	return h
}

// evacReport folds one finished evacuation into the registry.
func (o *fsObs) evacReport(rep *EvacReport) {
	if rep == nil {
		return
	}
	o.evacs.Inc()
	o.evacKeys.Add(int64(rep.Moved))
	o.evacDefer.Add(int64(rep.Deferred))
	if rep.Forced {
		o.evacForced.Inc()
		o.evacAtRisk.Add(int64(rep.AtRisk))
	}
}

// drainReport folds one finished partial drain into the registry.
func (o *fsObs) drainReport(rep *DrainReport) {
	if rep == nil {
		return
	}
	o.drains.Inc()
	o.evacKeys.Add(int64(rep.Moved))
}

func (o *fsObs) slowCounter(op string) *obs.Counter {
	if c, ok := o.slowOps.Load(op); ok {
		return c.(*obs.Counter)
	}
	c := o.reg.Counter("memfss_fs_slow_ops_total",
		"Operations that exceeded the slow-op threshold.", obs.L("op", op))
	o.slowOps.Store(op, c)
	return c
}

// --- per-operation tracing --------------------------------------------------

// note records a flight-recorder event.
func (o *fsObs) note(typ, node, detail string, id trace.ID) {
	o.journal.Note(typ, node, detail, id)
}

// noteQuota journals a tenant quota/pacing rejection.
func (o *fsObs) noteQuota(tenant, detail string, id trace.ID) {
	ev := trace.Event{Type: "quota", Tenant: tenant, Detail: detail}
	if id != 0 {
		ev.Trace = id.String()
	}
	o.journal.Record(ev)
}

// recordNodeErr remembers the trace that last saw node fail a store op.
func (o *fsObs) recordNodeErr(node string, id trace.ID) {
	if node == "" || id == 0 {
		return
	}
	o.nodeErr.Store(node, id)
}

// lastNodeTrace returns the trace that last witnessed node failing, so a
// health transition event can link the operation that saw it die.
func (o *fsObs) lastNodeTrace(node string) trace.ID {
	if v, ok := o.nodeErr.Load(node); ok {
		return v.(trace.ID)
	}
	return 0
}

// opTrace wraps one WriteAt/ReadAt's span tree. The old flat-phase
// recorder grew into a real hierarchy: root op span -> per-stripe spans
// (created lazily on first touch) -> store-op spans -> per-connection-
// attempt spans, plus side legs for repair enqueues and EC
// reconstruction. t is nil for work that runs outside any operation
// (Scrub/RepairFile's gathers): internal/obs/trace no-ops on a nil
// *Trace, so such an opTrace records nothing.
type opTrace struct {
	o *fsObs
	t *trace.Trace

	op    string
	path  string
	off   int64
	bytes int
	start time.Time

	mu      sync.Mutex
	stripes map[int64]trace.Span
}

// newTrace starts a trace for one operation.
func (fs *FileSystem) newTrace(op, path string, off int64, n int) *opTrace {
	return &opTrace{
		o:     fs.obs,
		t:     fs.obs.tracer.Start(op, path, off, n),
		op:    op,
		path:  path,
		off:   off,
		bytes: n,
		start: time.Now(),
	}
}

// traceID returns the operation's trace ID (0 outside an operation).
func (t *opTrace) traceID() trace.ID { return t.t.ID() }

// markDegraded flags the trace for unconditional retention.
func (t *opTrace) markDegraded() { t.t.MarkDegraded() }

// stripeSpan returns the parent span for ops on one stripe: the root for
// pipeline bursts (stripe < 0), else a per-stripe span opened on first
// touch and closed when the trace finishes.
func (t *opTrace) stripeSpan(stripe int64) trace.Span {
	if stripe < 0 {
		return t.t.Root()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.stripes[stripe]
	if !ok {
		if t.stripes == nil {
			t.stripes = make(map[int64]trace.Span)
		}
		sp = t.t.Root().Stripe("stripe", stripe)
		t.stripes[stripe] = sp
	}
	return sp
}

// storeSpanName distinguishes stripe-scoped store ops from whole
// pipeline bursts in the span tree.
func storeSpanName(stripe int64) string {
	if stripe < 0 {
		return "burst"
	}
	return "store"
}

// noteErr records node attribution for failed store ops so health events
// can link the trace that saw the node fail.
func (t *opTrace) noteErr(node, outcome string) {
	if outcome == "error" || outcome == "miss" {
		t.o.recordNodeErr(node, t.t.ID())
	}
}

// phaseOp records a store op from its kvstore OpStat, expanding retried
// operations into per-attempt child spans (attempt i's duration excludes
// backoff sleeps; every attempt but the last ended in a retry).
func (t *opTrace) phaseOp(stripe int64, node, class string, st kvstore.OpStat, outcome string) {
	sp := t.stripeSpan(stripe).Record(storeSpanName(stripe), node, class, stripe, st.Attempts, st.Dur, outcome)
	if st.Attempts > 1 {
		n := st.Attempts
		if n > kvstore.StatAttemptCap {
			n = kvstore.StatAttemptCap
		}
		for i := 0; i < n; i++ {
			out := "retry"
			if i == st.Attempts-1 {
				out = outcome
			}
			sp.Record("attempt", node, class, stripe, i+1, st.AttemptDur[i], out)
		}
	}
	t.noteErr(node, outcome)
}

// leg opens a named side leg under the root span (repair enqueue, EC
// reconstruction); callers close it with End/EndOutcome.
func (t *opTrace) leg(name string) trace.Span { return t.t.Root().Child(name) }

// recLeg records an already-measured side leg under the root span.
func (t *opTrace) recLeg(name string, dur time.Duration, outcome string) {
	t.t.Root().Record(name, "", "", -1, 0, dur, outcome)
}

// hedgeLeg records, under the stripe's span, that an erasure read gather
// launched fetches beyond its first k: waited is how long the gather had
// run by then, reason what made it (miss | error | stale | slow).
func (t *opTrace) hedgeLeg(stripe int64, waited time.Duration, reason string) {
	t.stripeSpan(stripe).Record("hedge", "", "", stripe, 0, waited, reason)
}

// abort closes a trace for an operation rejected before any store I/O
// (QoS admission denial): the errored trace is retained for forensics but
// the op never ran, so it stays out of the latency histograms and the
// slow-op log.
func (t *opTrace) abort(err error) { t.t.Finish(err) }

// finishTrace closes the trace: observe the end-to-end histogram (with
// the trace ID as its exemplar), run the tail-sampling retention
// decision, and — when the operation exceeded the slow threshold — emit
// the structured slow-op line rendered from the span tree. spans is the
// operation's stripe-span count. A negative threshold keeps the
// histograms but disables slow retention and the log line.
func (fs *FileSystem) finishTrace(t *opTrace, spans int, err error) {
	o := fs.obs
	data, _ := t.t.Finish(err)
	elapsed := time.Since(t.start)
	hist := o.readSeconds
	if t.op == "write" {
		hist = o.writeSeconds
	}
	hist.ObserveExemplar(elapsed, uint64(t.t.ID()))
	if o.slowThr < 0 || elapsed < o.slowThr {
		return
	}
	o.slowCounter(t.op).Inc()
	o.logf("memfss: slow-op trace=%s op=%s path=%s off=%d bytes=%d elapsed=%s spans=%d err=%v phases=%s",
		t.t.ID(), t.op, t.path, t.off, t.bytes, elapsed.Round(time.Microsecond), spans, err, renderSpanPhases(data))
}

// tracePhase is the flat view of one store-op span, kept as the slow-op
// log line's rendering unit.
type tracePhase struct {
	stripe   int64 // stripe index, -1 for a multi-stripe burst
	node     string
	class    string
	attempts int
	dur      time.Duration
	outcome  string // ok | retry | error | skipped | miss
}

// renderSpanPhases flattens a trace snapshot's store/burst spans and
// formats them slowest-first capped at 12, as
// s<stripe>@<node>(<class>,att=N,<outcome>,<dur>).
func renderSpanPhases(data *trace.TraceData) string {
	var phases []tracePhase
	if data != nil {
		data.Root.Walk(func(_ int, sp *trace.SpanData) {
			if sp.Name != "store" && sp.Name != "burst" {
				return
			}
			phases = append(phases, tracePhase{
				stripe: sp.Stripe, node: sp.Node, class: sp.Class,
				attempts: sp.Attempts,
				dur:      time.Duration(sp.DurUS) * time.Microsecond,
				outcome:  sp.Outcome,
			})
		})
	}
	total := len(phases)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].dur > phases[j].dur })
	const keep = 12
	trimmed := false
	if len(phases) > keep {
		phases = phases[:keep]
		trimmed = true
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		target := "s" + fmt.Sprint(p.stripe)
		if p.stripe < 0 {
			target = "burst"
		}
		fmt.Fprintf(&b, "%s@%s(%s,att=%d,%s,%s)",
			target, p.node, p.class, p.attempts, p.outcome, p.dur.Round(time.Microsecond))
	}
	if trimmed {
		fmt.Fprintf(&b, " +%d more", total-keep)
	}
	b.WriteByte(']')
	return b.String()
}
