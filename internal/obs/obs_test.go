package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("memfss_test_total", "test counter", L("op", "write"))
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Same (name, labels) resolves to the same counter.
	if c2 := r.Counter("memfss_test_total", "test counter", L("op", "write")); c2 != c {
		t.Fatal("counter not deduplicated")
	}
	// Label order must not matter.
	h1 := r.Histogram("memfss_test_seconds", "h", L("a", "1", "b", "2"), nil)
	h2 := r.Histogram("memfss_test_seconds", "h", L("b", "2", "a", "1"), nil)
	if h1 != h2 {
		t.Fatal("histogram identity depends on label order")
	}
	var gv float64 = 7
	r.Gauge("memfss_test_gauge", "g", nil, func() float64 { return gv })
	snap := r.Snapshot()
	found := false
	for _, f := range snap {
		if f.Name == "memfss_test_gauge" {
			found = true
			if f.Series[0].Gauge != 7 {
				t.Fatalf("gauge = %v, want 7", f.Series[0].Gauge)
			}
		}
	}
	if !found {
		t.Fatal("gauge family missing from snapshot")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("memfss_x_total", "", nil)
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should report 0")
	}
	h := r.Histogram("memfss_x_seconds", "", nil, nil)
	if h != nil {
		t.Fatal("nil registry handed out a histogram")
	}
	h.Observe(time.Second)
	r.Gauge("memfss_x_gauge", "", nil, func() float64 { return 1 })
	r.Remove("memfss_x_gauge", nil)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v body=%q", err, sb.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	cum, count, sumNs := h.snapshot()
	want := []int64{2, 3, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	wantSum := int64(500*time.Microsecond + time.Millisecond + 2*time.Millisecond + time.Second)
	if sumNs != wantSum {
		t.Fatalf("sum = %d, want %d", sumNs, wantSum)
	}
}

func TestQuantile(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := NewHistogram(bounds)
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond) // bucket 1: (1ms, 10ms]
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // bucket 2: (10ms, 100ms]
	}
	cum, count, sumNs := h.snapshot()
	s := &SeriesSnapshot{CumBuckets: cum, Count: count, Sum: time.Duration(sumNs)}
	p50 := s.Quantile(bounds, 0.5)
	if p50 < time.Millisecond || p50 > 10*time.Millisecond {
		t.Fatalf("p50 = %v, want within (1ms, 10ms]", p50)
	}
	p99 := s.Quantile(bounds, 0.99)
	if p99 <= 10*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want within (10ms, 100ms]", p99)
	}
	var empty *SeriesSnapshot
	if q := empty.Quantile(bounds, 0.5); q != -1 {
		t.Fatalf("nil series quantile = %v, want -1", q)
	}
}

func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("memfss_demo_ops_total", "Demo operations.", L("op", "write", "class", "own")).Add(3)
	r.Counter("memfss_demo_ops_total", "Demo operations.", L("op", "read", "class", "victim")).Add(7)
	r.Gauge("memfss_demo_depth", "Demo queue depth.", nil, func() float64 { return 2.5 })
	h := r.Histogram("memfss_demo_seconds", "Demo latency.", L("op", "write"),
		[]time.Duration{time.Millisecond, time.Second})
	h.Observe(500 * time.Microsecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	r.Counter("memfss_demo_weird_total", "Help with \\ and\nnewline.",
		L("path", `a"b\c`)).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	golden := `# HELP memfss_demo_depth Demo queue depth.
# TYPE memfss_demo_depth gauge
memfss_demo_depth 2.5
# HELP memfss_demo_ops_total Demo operations.
# TYPE memfss_demo_ops_total counter
memfss_demo_ops_total{class="own",op="write"} 3
memfss_demo_ops_total{class="victim",op="read"} 7
# HELP memfss_demo_seconds Demo latency.
# TYPE memfss_demo_seconds histogram
memfss_demo_seconds_bucket{op="write",le="0.001"} 1
memfss_demo_seconds_bucket{op="write",le="1"} 3
memfss_demo_seconds_bucket{op="write",le="+Inf"} 3
memfss_demo_seconds_sum{op="write"} 0.0405
memfss_demo_seconds_count{op="write"} 3
# HELP memfss_demo_weird_total Help with \\ and\nnewline.
# TYPE memfss_demo_weird_total counter
memfss_demo_weird_total{path="a\"b\\c"} 1
# HELP memfss_obs_dropped_series Series registrations the per-family cardinality cap refused; their samples are missing from this page.
# TYPE memfss_obs_dropped_series gauge
memfss_obs_dropped_series 0
`
	if sb.String() != golden {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), golden)
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("memfss_rt_total", "rt", L("node", "own-0", "class", "own")).Add(42)
	h := r.Histogram("memfss_rt_seconds", "rt", L("op", "read"), nil)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	r.Gauge("memfss_rt_state", "rt", L("node", `we"ird\n`), func() float64 { return 2 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if page.Types["memfss_rt_total"] != "counter" || page.Types["memfss_rt_seconds"] != "histogram" {
		t.Fatalf("types = %v", page.Types)
	}
	if m := page.Find("memfss_rt_total", L("node", "own-0")); m == nil || m.Value != 42 {
		t.Fatalf("counter sample = %+v", m)
	}
	if m := page.Find("memfss_rt_seconds_count", L("op", "read")); m == nil || m.Value != 2 {
		t.Fatalf("histogram count sample = %+v", m)
	}
	if m := page.Find("memfss_rt_state", L("node", `we"ird\n`)); m == nil || m.Value != 2 {
		t.Fatalf("escaped label sample = %+v", m)
	}
	inf := 0
	for _, s := range page.Samples {
		if s.Name == "memfss_rt_seconds_bucket" && s.Labels.Get("le") == "+Inf" {
			inf++
		}
	}
	if inf != 1 {
		t.Fatalf("+Inf buckets parsed = %d, want 1", inf)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("memfss_h_total", "h", nil).Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	page, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m := page.Find("memfss_h_total", nil); m == nil || m.Value != 1 {
		t.Fatalf("sample = %+v", m)
	}
}

func TestSeriesCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSeriesPerFamily+10; i++ {
		c := r.Counter("memfss_cap_total", "cap", L("i", strings.Repeat("x", i%7)+string(rune('a'+i%26))+itoa(i)))
		c.Inc() // overflow counters must still work
	}
	var fam *FamilySnapshot
	dropped := -1.0
	for _, f := range r.Snapshot() {
		switch f.Name {
		case "memfss_cap_total":
			f := f
			fam = &f
		case "memfss_obs_dropped_series":
			dropped = f.Series[0].Gauge
		}
	}
	if fam == nil {
		t.Fatal("family missing from snapshot")
	}
	if dropped != 10 {
		t.Fatalf("memfss_obs_dropped_series = %v, want 10", dropped)
	}
	if len(fam.Series) != maxSeriesPerFamily {
		t.Fatalf("family series = %d, want %d", len(fam.Series), maxSeriesPerFamily)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestRemove(t *testing.T) {
	r := NewRegistry()
	r.Gauge("memfss_rm_state", "rm", L("node", "victim-0"), func() float64 { return 1 })
	r.Gauge("memfss_rm_state", "rm", L("node", "victim-1"), func() float64 { return 2 })
	r.Remove("memfss_rm_state", L("node", "victim-0"))
	snap := r.Snapshot()
	for _, f := range snap {
		if f.Name == "memfss_rm_state" {
			if len(f.Series) != 1 || f.Series[0].Labels.Get("node") != "victim-1" {
				t.Fatalf("series after remove = %+v", f.Series)
			}
			return
		}
	}
	t.Fatal("family missing")
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("memfss_conflict_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Histogram("memfss_conflict_total", "", nil, nil)
}

// TestConcurrencyHammer races registration, observation, gauge
// replacement, removal, and exposition; run under -race it pins the
// registry's concurrency safety.
func TestConcurrencyHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lbl := L("node", "n"+itoa(i%5), "class", []string{"own", "victim"}[i%2])
				r.Counter("memfss_hammer_total", "h", lbl).Inc()
				r.Histogram("memfss_hammer_seconds", "h", lbl, nil).Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Gauge("memfss_hammer_state", "h", L("w", itoa(w)), func() float64 { return float64(i) })
				}
				if i%250 == 0 {
					r.Remove("memfss_hammer_state", L("w", itoa((w+1)%workers)))
				}
			}
		}()
	}
	var expo sync.WaitGroup
	stop := make(chan struct{})
	expo.Add(1)
	go func() {
		defer expo.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	close(stop)
	expo.Wait()

	var total int64
	for _, f := range r.Snapshot() {
		if f.Name == "memfss_hammer_total" {
			for _, s := range f.Series {
				total += s.Value
			}
		}
	}
	if total != workers*iters {
		t.Fatalf("hammer total = %d, want %d", total, workers*iters)
	}
}

// --- overhead benchmarks ---------------------------------------------------

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("memfss_bench_total", "", L("op", "write"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("memfss_bench_seconds", "", L("op", "write"), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Microsecond)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("memfss_benchp_seconds", "", L("op", "write"), nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(250 * time.Microsecond)
		}
	})
}

// TestExemplars pins the histogram exemplar path: ObserveExemplar
// attaches a trace ID to the landing bucket, the snapshot surfaces it in
// ascending bucket order, the text exposition renders
// the OpenMetrics suffix, and the parser still reads the page.
func TestExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("memfss_ex_seconds", "Exemplar test.", L("op", "write"), nil)
	h.ObserveExemplar(120*time.Microsecond, 0xabcdef0123456789)
	h.ObserveExemplar(2*time.Second, 0x1122334455667788)
	h.ObserveExemplar(time.Millisecond, 0) // zero ID: plain observe
	h.Observe(time.Millisecond)

	fams := r.Snapshot()
	var s *SeriesSnapshot
	for i := range fams {
		if fams[i].Name == "memfss_ex_seconds" {
			s = fams[i].Find(L("op", "write"))
		}
	}
	if s == nil {
		t.Fatal("series missing from snapshot")
	}
	if len(s.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2", s.Exemplars)
	}
	if worst := s.Exemplars[1]; worst.TraceID != 0x1122334455667788 || worst.Value != 2*time.Second {
		t.Fatalf("highest-bucket exemplar = %+v", worst)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if !strings.Contains(page, `# {trace_id="1122334455667788"}`) {
		t.Fatalf("exposition missing exemplar suffix:\n%s", page)
	}
	parsed, err := ParsePrometheus(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	m := parsed.Find("memfss_ex_seconds_count", L("op", "write"))
	if m == nil || m.Value != 4 {
		t.Fatalf("parse with exemplars: count sample = %+v", m)
	}

	// Nil receiver stays safe.
	var nh *Histogram
	nh.ObserveExemplar(time.Second, 7)
	if ex := nh.exemplars(); ex != nil {
		t.Fatalf("nil histogram exemplars = %v", ex)
	}
}
