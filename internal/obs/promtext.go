package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// --- exposition ------------------------------------------------------------

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families sorted by name and series sorted by
// label key so the output is deterministic and golden-testable.
// Histogram bucket bounds are emitted in seconds. A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fs := range r.Snapshot() {
		fmt.Fprintf(bw, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", fs.Name, fs.Kind)
		for _, s := range fs.Series {
			switch fs.Kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", fs.Name, s.Labels, s.Value)
			case KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", fs.Name, s.Labels, formatFloat(s.Gauge))
			case KindHistogram:
				for i, cum := range s.CumBuckets {
					fmt.Fprintf(bw, "%s_bucket%s %d",
						fs.Name, withLE(s.Labels, leString(fs.Bounds, i)), cum)
					// OpenMetrics-style exemplar suffix: the most recent
					// trace ID that landed in this bucket, so a p99 bucket
					// names the trace that explains it. Parsers of the
					// classic format ignore tokens past the value.
					for _, ex := range s.Exemplars {
						if ex.Bucket == i {
							fmt.Fprintf(bw, " # {trace_id=\"%016x\"} %s",
								ex.TraceID, formatFloat(ex.Value.Seconds()))
							break
						}
					}
					bw.WriteByte('\n')
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", fs.Name, s.Labels, formatFloat(s.Sum.Seconds()))
				fmt.Fprintf(bw, "%s_count%s %d\n", fs.Name, s.Labels, s.Count)
			}
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving reg in Prometheus text format;
// a nil registry serves an empty body.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

func leString(bounds []time.Duration, i int) string {
	if i >= len(bounds) {
		return "+Inf"
	}
	return formatFloat(bounds[i].Seconds())
}

// withLE appends an le label to a rendered label set.
func withLE(ls Labels, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// --- snapshots -------------------------------------------------------------

// SeriesSnapshot is one series' point-in-time state. Counter series fill
// Value; gauge series fill Gauge; histogram series fill CumBuckets
// (cumulative, +Inf last), Count and Sum.
type SeriesSnapshot struct {
	Labels     Labels
	Value      int64
	Gauge      float64
	CumBuckets []int64
	Count      int64
	Sum        time.Duration
	// Exemplars carries the histogram's per-bucket (trace ID, value)
	// pairs, ascending by bucket; empty for counters/gauges and for
	// histograms that only ever saw Observe (no traced observations).
	Exemplars []Exemplar
}

// FamilySnapshot is one family's point-in-time state.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Bounds []time.Duration // histograms only
	Series []SeriesSnapshot
}

// Find returns the series matching every given label (it may carry
// more), or nil.
func (f *FamilySnapshot) Find(labels Labels) *SeriesSnapshot {
	for i := range f.Series {
		ok := true
		for _, want := range labels {
			if f.Series[i].Labels.Get(want.Name) != want.Value {
				ok = false
				break
			}
		}
		if ok {
			return &f.Series[i]
		}
	}
	return nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) of a histogram series
// by linear interpolation within its buckets, -1 when empty. The +Inf
// bucket is clamped to the last finite bound.
func (s *SeriesSnapshot) Quantile(bounds []time.Duration, q float64) time.Duration {
	if s == nil || s.Count == 0 || len(s.CumBuckets) == 0 {
		return -1
	}
	rank := q * float64(s.Count)
	idx := sort.Search(len(s.CumBuckets), func(i int) bool {
		return float64(s.CumBuckets[i]) >= rank
	})
	if idx >= len(s.CumBuckets) {
		idx = len(s.CumBuckets) - 1
	}
	if idx >= len(bounds) { // +Inf bucket: clamp to last finite bound
		if len(bounds) == 0 {
			return -1
		}
		return bounds[len(bounds)-1]
	}
	var lo time.Duration
	var below int64
	if idx > 0 {
		lo = bounds[idx-1]
		below = s.CumBuckets[idx-1]
	}
	hi := bounds[idx]
	in := s.CumBuckets[idx] - below
	if in <= 0 {
		return hi
	}
	frac := (rank - float64(below)) / float64(in)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return lo + time.Duration(frac*float64(hi-lo))
}

// Snapshot captures every family's current state, sorted for
// determinism. Nil registry → nil.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Bounds: f.bounds}
		// Copy each series under the family lock (the gauge callback
		// pointer may be replaced concurrently); call the callbacks and
		// read the atomics outside it.
		type flat struct {
			key string
			s   series
		}
		f.mu.RLock()
		flats := make([]flat, 0, len(f.series))
		for k, s := range f.series {
			flats = append(flats, flat{key: k, s: *s})
		}
		f.mu.RUnlock()
		sort.Slice(flats, func(i, j int) bool { return flats[i].key < flats[j].key })
		for _, fl := range flats {
			ss := SeriesSnapshot{Labels: fl.s.labels}
			switch f.kind {
			case KindCounter:
				ss.Value = fl.s.c.Value()
			case KindGauge:
				ss.Gauge = fl.s.g()
			case KindHistogram:
				ss.CumBuckets, ss.Count, ss.Sum = snapshotHist(fl.s.h)
				ss.Exemplars = fl.s.h.exemplars()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

func snapshotHist(h *Histogram) ([]int64, int64, time.Duration) {
	cum, count, sumNs := h.snapshot()
	return cum, count, time.Duration(sumNs)
}

// --- parsing ---------------------------------------------------------------

// ParsedMetric is one sample line from a Prometheus text page.
type ParsedMetric struct {
	Name   string
	Labels Labels
	Value  float64
}

// ParsedPage is a parsed Prometheus text page, preserving sample order
// and the TYPE of each family when declared.
type ParsedPage struct {
	Samples []ParsedMetric
	Types   map[string]string // family name -> counter|gauge|histogram
}

// Find returns the first sample with the given name whose labels include
// every given pair, or nil.
func (p *ParsedPage) Find(name string, labels Labels) *ParsedMetric {
	for i := range p.Samples {
		if p.Samples[i].Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			if p.Samples[i].Labels.Get(want.Name) != want.Value {
				ok = false
				break
			}
		}
		if ok {
			return &p.Samples[i]
		}
	}
	return nil
}

// ParsePrometheus parses a Prometheus text exposition page. It accepts
// the subset of the format WritePrometheus emits (which is all memfsctl
// stats needs) plus tolerant whitespace, skipping malformed lines rather
// than failing the whole page.
func ParsePrometheus(r io.Reader) (*ParsedPage, error) {
	page := &ParsedPage{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if fields := strings.Fields(line); len(fields) >= 4 && fields[1] == "TYPE" {
				page.Types[fields[2]] = fields[3]
			}
			continue
		}
		m, ok := parseSample(line)
		if ok {
			page.Samples = append(page.Samples, m)
		}
	}
	return page, sc.Err()
}

func parseSample(line string) (ParsedMetric, bool) {
	var m ParsedMetric
	rest := line
	// Name runs until '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return m, false
	}
	m.Name = rest[:end]
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return m, false
		}
		var ok bool
		m.Labels, ok = parseLabels(rest[1:close])
		if !ok {
			return m, false
		}
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return m, false
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return m, false
	}
	m.Value = v
	return m, true
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLabels(s string) (Labels, bool) {
	var out Labels
	for len(s) > 0 {
		s = strings.TrimLeft(s, ", \t")
		if s == "" {
			break
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, false
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, false
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(s) {
			return nil, false
		}
		out = append(out, Label{Name: name, Value: val.String()})
		s = s[i+1:]
	}
	return out, true
}
