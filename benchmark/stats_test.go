package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0: 1, 0.5: 5.5, 0.95: 9.55, 1: 10} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty slice must read 0")
	}
}

// The tail is the highest level with at least ten samples beyond it.
func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // 39 × 0.25 < 10
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	}
	for _, c := range cases {
		p, ok := tailLevel(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-p) < 10-1e-9 {
			t.Errorf("tailLevel(%d) = %v leaves fewer than ten samples beyond", c.n, p)
		}
	}
}

// The window median ignores one stalled window, where a mean would not,
// and drops the trailing partial window.
func TestWindowMedianEstimator(t *testing.T) {
	sec := int64(time.Second)
	var ss []sample
	add := func(window int64, ops int) {
		for i := 0; i < ops; i++ {
			ss = append(ss, sample{end: window*sec + int64(i)*sec/int64(ops+1) + 1, bytes: 1000})
		}
	}
	add(0, 50) // before `from`: warm-up, must not count
	add(1, 100)
	add(2, 100)
	add(3, 10) // a stall
	add(4, 100)
	add(5, 100)
	add(6, 40) // falls in the partial last window
	rates := windowRates(ss, 1*sec, 6*sec+sec/2, time.Second, func(s sample) float64 { return float64(s.bytes) })
	if len(rates) != 5 {
		t.Fatalf("got %d windows, want 5 whole ones", len(rates))
	}
	if got := median(rates); got != 100*1000 {
		t.Errorf("median window rate = %v, want 100000", got)
	}
	if rates[2] != 10*1000 {
		t.Errorf("stalled window = %v, want 10000", rates[2])
	}
	if got := windowRates(ss, 0, sec/2, time.Second, sampleOne); got != nil {
		t.Errorf("an interval shorter than a window must give no rates, got %v", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) || !near(spread, 1) {
		t.Errorf("got %v %v %v %v", q1, med, q3, spread)
	}
	// statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3, _ = quartileSpread([]float64{3, 1, 2})
	if !near(q1, 1) || !near(med, 2) || !near(q3, 3) {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3, _ = quartileSpread([]float64{1, 2})
	if !near(q1, 0.75) || !near(med, 1.5) || !near(q3, 2.25) {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}
