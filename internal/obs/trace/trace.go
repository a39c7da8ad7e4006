// Package trace is the hierarchical tracing and flight-recorder layer of
// MemFSS observability. It complements the metric families in
// internal/obs with two forensic substrates:
//
//   - A Tracer producing real parent/child span trees per operation
//     (op -> stripe -> store op -> connection attempt, with repair and
//     reconstruction legs), retained in an in-process ring-buffer Store
//     under tail-based sampling: traces that errored, degraded, or ran
//     slow are always kept; healthy fast traces are sampled 1-in-N so
//     the baseline shape stays inspectable without drowning the ring.
//
//   - A Journal — the always-on flight recorder — a bounded cluster
//     event log capturing health transitions, evacuation phase changes,
//     lease lifecycle and SLO outcomes, repair enqueue/restored, and
//     quota rejections, each timestamped and optionally linked to the
//     trace that witnessed it.
//
// Every type is nil-safe: a nil *Tracer hands out nil *Trace handles and
// zero Spans whose methods all no-op, so disabled telemetry costs one
// branch per call site (the same contract internal/obs keeps).
package trace

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 64-bit trace identifier, rendered as 16 hex digits in logs,
// JSON, and exemplars.
type ID uint64

// String renders the ID the way slow-op log lines always have:
// zero-padded 16-digit hex.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the 16-hex-digit rendering back into an ID.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace ID %q: %w", s, err)
	}
	return ID(v), nil
}

// Config tunes a Tracer. The zero value takes defaults.
type Config struct {
	// Capacity bounds each retention ring (one for interesting traces,
	// one for sampled-OK traces); default 256 per ring.
	Capacity int
	// SampleEvery keeps one in every N healthy fast traces (default 16).
	// Negative retains only interesting traces (error/degraded/slow).
	SampleEvery int
	// SlowThreshold is the elapsed time at or past which a trace counts
	// as slow and is always retained (default 1s; negative disables slow
	// retention, leaving error/degraded as the only always-keep causes).
	SlowThreshold time.Duration
}

// Tracer mints traces and owns their retention Store.
type Tracer struct {
	base      uint64 // random per-process base, XOR'd with seq for IDs
	seq       atomic.Uint64
	sampleCtr atomic.Uint64 // healthy-fast traces seen, for 1-in-N sampling
	sampleN   uint64
	slowThr   time.Duration
	store     *Store
}

// New builds a Tracer with cfg's retention policy.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 256
	}
	sampleN := uint64(16)
	switch {
	case cfg.SampleEvery > 0:
		sampleN = uint64(cfg.SampleEvery)
	case cfg.SampleEvery < 0:
		sampleN = 0 // interesting-only
	}
	thr := cfg.SlowThreshold
	if thr == 0 {
		thr = time.Second
	}
	return &Tracer{
		base:    rand.Uint64(),
		sampleN: sampleN,
		slowThr: thr,
		store:   newStore(capacity),
	}
}

// Store returns the tracer's retention store (nil on a nil tracer).
func (tr *Tracer) Store() *Store {
	if tr == nil {
		return nil
	}
	return tr.store
}

// maxSpansPerTrace bounds the span records kept per trace so one huge
// operation cannot hold the heap hostage; spans past the cap are counted
// in TraceData.DroppedSpans instead of recorded.
const maxSpansPerTrace = 512

// Trace is one in-flight operation's span tree. Handles are created by
// Tracer.Start and closed by Finish; all methods are nil-safe.
type Trace struct {
	tracer *Tracer
	id     ID
	op     string
	path   string
	off    int64
	bytes  int
	start  time.Time

	mu       sync.Mutex
	spans    []spanRec
	dropped  int
	degraded bool
	errored  bool
}

// spanRec is the flat storage of one span; trees are rebuilt from parent
// indices at snapshot time, keeping the hot path to one slice append.
type spanRec struct {
	parent   int // index into spans, -1 for the root
	name     string
	node     string
	class    string
	stripe   int64 // stripe index, -1 when not stripe-scoped
	attempts int
	startOff time.Duration // offset from trace start
	dur      time.Duration // 0 while open
	outcome  string
	open     bool
}

// Start mints a trace whose root span covers one operation. A nil tracer
// returns a nil trace.
func (tr *Tracer) Start(op, path string, off int64, bytes int) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{
		tracer: tr,
		id:     ID(tr.base ^ tr.seq.Add(1)),
		op:     op,
		path:   path,
		off:    off,
		bytes:  bytes,
		start:  time.Now(),
	}
	t.spans = append(t.spans, spanRec{parent: -1, name: op, stripe: -1, open: true})
	return t
}

// ID returns the trace identifier (0 on nil).
func (t *Trace) ID() ID {
	if t == nil {
		return 0
	}
	return t.id
}

// Root returns the trace's root span.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, idx: 0}
}

// MarkDegraded flags the trace for unconditional retention: the
// operation succeeded but lost redundancy on the way (a degraded quorum
// write, a degraded read, an EC reconstruction).
func (t *Trace) MarkDegraded() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.degraded = true
	t.mu.Unlock()
}

// addSpan appends a completed-or-open child record, returning its index
// or -1 when capped.
func (t *Trace) addSpan(rec spanRec) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.outcome == outcomeError {
		// A failed leg inside a recovered operation is the degraded tail
		// the tracer exists to retain; only Finish's error marks the whole
		// trace errored.
		t.degraded = true
	}
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, rec)
	return len(t.spans) - 1
}

const (
	outcomeOK    = "ok"
	outcomeError = "error"
)

// Span is a handle to one node of a trace's span tree. The zero Span
// (and any span of a nil trace) no-ops.
type Span struct {
	t   *Trace
	idx int
}

// Valid reports whether the span belongs to a live trace.
func (s Span) Valid() bool { return s.t != nil && s.idx >= 0 }

// Child opens a nested span named name, started now. End it with End or
// EndOutcome; an unclosed child is closed by the trace's Finish.
func (s Span) Child(name string) Span {
	if !s.Valid() {
		return Span{}
	}
	idx := s.t.addSpan(spanRec{
		parent:   s.idx,
		name:     name,
		stripe:   -1,
		startOff: time.Since(s.t.start),
		open:     true,
	})
	return Span{t: s.t, idx: idx}
}

// Stripe opens (or records) a nested span scoped to one stripe index.
func (s Span) Stripe(name string, stripe int64) Span {
	sp := s.Child(name)
	if sp.Valid() {
		sp.t.mu.Lock()
		sp.t.spans[sp.idx].stripe = stripe
		sp.t.mu.Unlock()
	}
	return sp
}

// Record appends an already-measured child span: a store operation or
// retry leg whose duration the caller got from the kvstore client. The
// span is closed on arrival (start is back-dated by dur).
func (s Span) Record(name, node, class string, stripe int64, attempts int, dur time.Duration, outcome string) Span {
	if !s.Valid() {
		return Span{}
	}
	off := time.Since(s.t.start) - dur
	if off < 0 {
		off = 0
	}
	idx := s.t.addSpan(spanRec{
		parent:   s.idx,
		name:     name,
		node:     node,
		class:    class,
		stripe:   stripe,
		attempts: attempts,
		startOff: off,
		dur:      dur,
		outcome:  outcome,
	})
	return Span{t: s.t, idx: idx}
}

// EndOutcome closes the span with an explicit outcome string.
func (s Span) EndOutcome(outcome string) {
	if !s.Valid() {
		return
	}
	s.t.mu.Lock()
	rec := &s.t.spans[s.idx]
	if rec.open {
		rec.open = false
		rec.dur = time.Since(s.t.start) - rec.startOff
		rec.outcome = outcome
		if outcome == outcomeError {
			s.t.degraded = true
		}
	}
	s.t.mu.Unlock()
}

// End closes the span: "ok" on nil error, "error" otherwise.
func (s Span) End(err error) {
	if err != nil {
		s.EndOutcome(outcomeError)
	} else {
		s.EndOutcome(outcomeOK)
	}
}

// Finish closes the trace's root span and runs the tail-based retention
// decision: error/degraded/slow traces are always stored, healthy fast
// ones one-in-N. It returns the immutable snapshot and whether the store
// retained it. Finish on a nil trace returns (nil, false).
func (t *Trace) Finish(err error) (*TraceData, bool) {
	if t == nil {
		return nil, false
	}
	elapsed := time.Since(t.start)
	t.mu.Lock()
	// Close the root and any leaked-open children at the trace's end.
	for i := range t.spans {
		if t.spans[i].open {
			t.spans[i].open = false
			t.spans[i].dur = elapsed - t.spans[i].startOff
			if t.spans[i].outcome == "" {
				t.spans[i].outcome = outcomeOK
			}
		}
	}
	if err != nil {
		t.errored = true
		t.spans[0].outcome = outcomeError
	}
	degraded, errored, dropped := t.degraded, t.errored, t.dropped
	t.mu.Unlock()

	tr := t.tracer
	slow := tr.slowThr >= 0 && elapsed >= tr.slowThr
	interesting := errored || degraded || slow
	keep := interesting
	if !keep && tr.sampleN > 0 {
		keep = tr.sampleCtr.Add(1)%tr.sampleN == 0
	}
	if !keep {
		return nil, false
	}

	data := &TraceData{
		ID:           t.id.String(),
		Op:           t.op,
		Path:         t.path,
		Off:          t.off,
		Bytes:        t.bytes,
		Start:        t.start,
		DurUS:        elapsed.Microseconds(),
		Slow:         slow,
		Degraded:     degraded,
		DroppedSpans: dropped,
	}
	switch {
	case errored:
		data.Status = "error"
	case degraded:
		data.Status = "degraded"
	case slow:
		data.Status = "slow"
	default:
		data.Status = "ok"
	}
	if err != nil {
		data.Err = err.Error()
	}
	data.Root = t.snapshotTree()
	tr.store.add(data, interesting)
	return data, true
}

// snapshotTree rebuilds the nested SpanData tree from the flat records.
func (t *Trace) snapshotTree() *SpanData {
	t.mu.Lock()
	recs := make([]spanRec, len(t.spans))
	copy(recs, t.spans)
	t.mu.Unlock()

	nodes := make([]*SpanData, len(recs))
	for i, r := range recs {
		nodes[i] = &SpanData{
			Name:     r.name,
			Node:     r.node,
			Class:    r.class,
			Stripe:   r.stripe,
			Attempts: r.attempts,
			StartUS:  r.startOff.Microseconds(),
			DurUS:    r.dur.Microseconds(),
			Outcome:  r.outcome,
		}
	}
	for i, r := range recs {
		if r.parent >= 0 && r.parent < len(nodes) {
			nodes[r.parent].Children = append(nodes[r.parent].Children, nodes[i])
		}
	}
	return nodes[0]
}

// SpanData is one snapshotted span, JSON-ready for /debug/traces.
type SpanData struct {
	Name     string      `json:"name"`
	Node     string      `json:"node,omitempty"`
	Class    string      `json:"class,omitempty"`
	Stripe   int64       `json:"stripe"` // -1 = not stripe-scoped
	Attempts int         `json:"attempts,omitempty"`
	StartUS  int64       `json:"start_us"` // offset from trace start
	DurUS    int64       `json:"dur_us"`
	Outcome  string      `json:"outcome"`
	Children []*SpanData `json:"children,omitempty"`
}

// Walk visits the span and every descendant depth-first.
func (s *SpanData) Walk(fn func(depth int, sp *SpanData)) {
	if s == nil {
		return
	}
	var rec func(depth int, sp *SpanData)
	rec = func(depth int, sp *SpanData) {
		fn(depth, sp)
		for _, c := range sp.Children {
			rec(depth+1, c)
		}
	}
	rec(0, s)
}

// TraceData is one retained trace: the immutable snapshot the Store
// serves from /debug/traces.
type TraceData struct {
	ID           string    `json:"id"`
	Op           string    `json:"op"`
	Path         string    `json:"path"`
	Off          int64     `json:"off"`
	Bytes        int       `json:"bytes"`
	Start        time.Time `json:"start"`
	DurUS        int64     `json:"dur_us"`
	Status       string    `json:"status"` // ok | slow | degraded | error
	Slow         bool      `json:"slow,omitempty"`
	Degraded     bool      `json:"degraded,omitempty"`
	Err          string    `json:"err,omitempty"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Root         *SpanData `json:"root"`
}
