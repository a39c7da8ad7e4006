// Package obs is the MemFSS telemetry layer: a low-overhead metrics
// registry holding atomic counters, callback gauges, and fixed-boundary
// log-scale latency histograms, each keyed by a metric family name plus a
// small label set (op, node, class, outcome, ...).
//
// The registry is built for the per-stripe hot path: instrumentation
// sites resolve their *Counter / *Histogram once (at dial/mount time) and
// then pay only an atomic add (counter) or an atomic add plus a ~20-entry
// boundary scan (histogram) per observation. Registration is the cold
// path and may take locks; observation never blocks on the registry.
//
// Everything nil is a no-op: a nil *Registry hands out nil metrics, and
// every method on a nil *Counter / *Histogram returns immediately — so
// callers instrument unconditionally and disabling telemetry costs one
// predictable branch per site. Code that must keep counting even with
// telemetry off (e.g. core's Counters() surface) allocates standalone
// metrics with NewCounter / NewHistogram and registers them only when a
// registry exists.
//
// Label cardinality is the caller's contract: label values must come from
// small bounded sets (node IDs, class names, command verbs, outcome
// enums). As a backstop the registry refuses to grow a family past
// maxSeriesPerFamily series; overflowing callers receive a functional but
// unregistered metric and the drop is counted in the registry's own
// memfss_obs_dropped_series gauge, so /metrics says when it is incomplete.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing integer.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value read from a callback.
	KindGauge
	// KindHistogram is a fixed-boundary latency distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Label is one name=value pair.
type Label struct {
	Name, Value string
}

// Labels is an ordered label set. Keep it small (<= 4 labels) and its
// values bounded.
type Labels []Label

// L builds a label set from alternating name, value pairs:
// L("op", "write", "class", "victim").
func L(pairs ...string) Labels {
	if len(pairs)%2 != 0 {
		panic("obs: L takes name, value pairs")
	}
	out := make(Labels, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return out
}

// Get returns the value of the named label ("" if absent).
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// String renders the set as {a="x",b="y"} ("" for an empty set).
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sorted returns a name-sorted copy (or ls itself when already sorted),
// so series identity and exposition order are independent of the order a
// call site listed its labels in.
func (ls Labels) sorted() Labels {
	if sort.SliceIsSorted(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name }) {
		return ls
	}
	out := make(Labels, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// key is the canonical series identity within a family: labels sorted by
// name, rendered.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	return ls.sorted().String()
}

// --- metrics ---------------------------------------------------------------

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops / zero).
type Counter struct {
	v atomic.Int64
}

// NewCounter allocates a standalone (unregistered) counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n (n < 0 is a programming error but is
// tolerated to keep the hot path branch-free).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-boundary latency histogram: observations land in
// the first bucket whose upper bound (inclusive) is >= the value, plus a
// +Inf overflow bucket. All methods are safe on a nil receiver.
type Histogram struct {
	boundsNs []int64        // ascending upper bounds, nanoseconds
	counts   []atomic.Int64 // len(boundsNs)+1; last is +Inf
	count    atomic.Int64
	sumNs    atomic.Int64
	// exemplars holds one (trace ID, value) pair per bucket — the most
	// recent traced observation that landed there — so slow buckets carry
	// a trace ID an operator can pull from /debug/traces. Two racing
	// ObserveExemplar calls may interleave id and ns; both stores come
	// from real observations of the same bucket, so the pairing stays
	// representative even when it mixes.
	exIDs []atomic.Uint64 // len(boundsNs)+1
	exNs  []atomic.Int64
}

// NewHistogram allocates a standalone (unregistered) histogram over the
// given ascending bucket bounds (nil means DefLatencyBuckets).
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	ns := make([]int64, len(bounds))
	for i, b := range bounds {
		ns[i] = int64(b)
		if i > 0 && ns[i] <= ns[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %v", b))
		}
	}
	return &Histogram{
		boundsNs: ns,
		counts:   make([]atomic.Int64, len(bounds)+1),
		exIDs:    make([]atomic.Uint64, len(bounds)+1),
		exNs:     make([]atomic.Int64, len(bounds)+1),
	}
}

// bucketFor returns the bucket index an observation lands in.
func (h *Histogram) bucketFor(ns int64) int {
	i := 0
	for i < len(h.boundsNs) && ns > h.boundsNs[i] {
		i++
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	i := h.bucketFor(ns)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// ObserveExemplar records one duration and attaches traceID as the
// bucket's exemplar — the join key from a latency bucket back to the
// retained trace explaining it. A zero traceID is a plain Observe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	if h == nil {
		return
	}
	ns := int64(d)
	i := h.bucketFor(ns)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	if traceID != 0 {
		h.exIDs[i].Store(traceID)
		h.exNs[i].Store(ns)
	}
}

// Exemplar is one bucket's retained (trace, value) pair.
type Exemplar struct {
	Bucket  int           // bucket index; len(bounds) = the +Inf bucket
	TraceID uint64        // 0 never appears (zero IDs are not stored)
	Value   time.Duration // the exemplar observation's value
}

// exemplars returns the non-empty exemplars, ascending by bucket.
func (h *Histogram) exemplars() []Exemplar {
	if h == nil || h.exIDs == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exIDs {
		if id := h.exIDs[i].Load(); id != 0 {
			out = append(out, Exemplar{Bucket: i, TraceID: id, Value: time.Duration(h.exNs[i].Load())})
		}
	}
	return out
}

// snapshot returns cumulative bucket counts (including +Inf last), the
// total count, and the sum.
func (h *Histogram) snapshot() (cum []int64, count, sumNs int64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.sumNs.Load()
}

// DefLatencyBuckets is the default log-scale boundary set for store and
// file-operation latencies: 50µs to 10s, roughly 2-2.5x per step. Fine at
// the microsecond end (loopback round trips), coarse past a second.
var DefLatencyBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, 1 * time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, 1 * time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second,
}

// DefSlowBuckets is the boundary set for control-loop durations (repair
// time-to-redundancy, scrub passes): 1ms to 10min.
var DefSlowBuckets = []time.Duration{
	time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond, time.Second,
	5 * time.Second, 15 * time.Second, 60 * time.Second,
	5 * time.Minute, 10 * time.Minute,
}

// --- registry --------------------------------------------------------------

// maxSeriesPerFamily bounds a family's series count; see the package doc.
const maxSeriesPerFamily = 512

type series struct {
	labels Labels
	c      *Counter
	g      func() float64
	h      *Histogram
}

type family struct {
	name, help string
	kind       Kind
	bounds     []time.Duration // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

// Registry is a set of metric families. A nil *Registry is a valid no-op
// registry: its getters return nil metrics and its writers emit nothing.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	dropped  atomic.Int64
}

// NewRegistry creates a registry holding only its own drop gauge.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.Gauge("memfss_obs_dropped_series",
		"Series registrations the per-family cardinality cap refused; their samples are missing from this page.",
		nil, func() float64 { return float64(r.DroppedSeries()) })
	return r
}

// family returns (creating if needed) the named family, panicking on a
// kind conflict — two call sites disagreeing about a family's type is a
// programming error no runtime handling can fix.
func (r *Registry) family(name, help string, kind Kind, bounds []time.Duration) *family {
	validateName(name)
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, bounds: bounds,
				series: make(map[string]*series)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: family %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// get returns the family's series for labels, or (nil, false) plus a
// signal that the caller should create it.
func (f *family) get(key string) (*series, bool) {
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	return s, ok
}

// add inserts a prepared series unless the family is full or the key was
// concurrently inserted; it returns the winning series and whether the
// family overflowed.
func (f *family) add(key string, s *series) (*series, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.series[key]; ok {
		return cur, false
	}
	if len(f.series) >= maxSeriesPerFamily {
		return nil, true
	}
	f.series[key] = s
	return s, false
}

// Counter returns (creating if needed) the counter of family name with
// the given labels. A nil registry returns nil (a no-op counter); an
// overflowing family returns a functional but unregistered counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, KindCounter, nil)
	key := labels.key()
	if s, ok := f.get(key); ok {
		return s.c
	}
	s, overflow := f.add(key, &series{labels: labels.sorted(), c: NewCounter()})
	if overflow {
		r.dropped.Add(1)
		return NewCounter()
	}
	return s.c
}

// Histogram returns (creating if needed) the histogram of family name
// with the given labels and bounds (nil bounds = DefLatencyBuckets; the
// first registration of a family fixes its bounds). Nil registry → nil;
// family overflow → functional but unregistered.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	f := r.family(name, help, KindHistogram, bounds)
	key := labels.key()
	if s, ok := f.get(key); ok {
		return s.h
	}
	s, overflow := f.add(key, &series{labels: labels.sorted(), h: NewHistogram(f.bounds)})
	if overflow {
		r.dropped.Add(1)
		return NewHistogram(f.bounds)
	}
	return s.h
}

// Gauge registers a callback gauge; fn is invoked at exposition time and
// must be fast and safe to call concurrently. Re-registering the same
// (name, labels) replaces the callback. No-op on a nil registry.
func (r *Registry) Gauge(name, help string, labels Labels, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	f := r.family(name, help, KindGauge, nil)
	key := labels.key()
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.series[key]; ok {
		cur.g = fn
		return
	}
	if len(f.series) >= maxSeriesPerFamily {
		r.dropped.Add(1)
		return
	}
	f.series[key] = &series{labels: labels.sorted(), g: fn}
}

// Remove drops the series of family name with the given labels (no-op if
// absent). Used when a labeled object leaves the system for good, e.g. an
// evacuated node's health gauge.
func (r *Registry) Remove(name string, labels Labels) {
	if r == nil {
		return
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.series, labels.key())
	f.mu.Unlock()
}

// DroppedSeries reports how many series registrations the per-family
// cardinality backstop refused.
func (r *Registry) DroppedSeries() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
