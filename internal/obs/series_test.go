package obs

// Tests for the eval-harness statistics toolkit (migrated here with the
// code from the old internal/metrics package).

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("cpu")
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty series not zero")
	}
	for i, v := range []float64{1, 3, 2} {
		s.Add(float64(i), v)
	}
	if got := s.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Max(); got != 3 {
		t.Fatalf("Max = %v", got)
	}
	if s.Name != "cpu" {
		t.Fatalf("Name = %q", s.Name)
	}
	if got := s.samples; len(got) != 3 || got[1].At != 1 || got[1].Value != 3 {
		t.Fatalf("samples = %v", got)
	}
}

func TestSeriesQuantile(t *testing.T) {
	s := NewSeries("q")
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.Add(0, v)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.95, 5}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// Property: the quantile is monotone in q and bounded by min/max.
func TestSeriesQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 uint8) bool {
		s := NewSeries("p")
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(0, v)
		}
		a := float64(q1%101) / 100
		b := float64(q2%101) / 100
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdown(t *testing.T) {
	cases := []struct{ base, measured, want float64 }{
		{100, 110, 10},
		{100, 100, 0},
		{100, 95, -5},
		{0, 50, 0},
		{-1, 50, 0},
	}
	for _, c := range cases {
		if got := Slowdown(c.base, c.measured); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Slowdown(%v,%v) = %v, want %v", c.base, c.measured, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.125); got != "12.5%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestMeanOf(t *testing.T) {
	if MeanOf(nil) != 0 {
		t.Fatal("empty mean not zero")
	}
	if got := MeanOf([]float64{2, 4, 9}); got != 5 {
		t.Fatalf("MeanOf = %v", got)
	}
}
