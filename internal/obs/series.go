package obs

// This file is the small statistics toolkit the experiment harness
// (internal/eval) uses: time series with summary statistics, and ratio
// helpers for slowdown and utilization reporting. It used to be its own
// internal/metrics package; it lives here now so obs is the one metrics
// system in the tree.

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one (time, value) observation.
type Sample struct {
	At    float64
	Value float64
}

// Series is an append-only sequence of samples.
type Series struct {
	Name    string
	samples []Sample
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(at, value float64) {
	s.samples = append(s.samples, Sample{At: at, Value: value})
}

// Mean returns the arithmetic mean of the values (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.samples {
		sum += x.Value
	}
	return sum / float64(len(s.samples))
}

// Max returns the largest value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for i, x := range s.samples {
		if i == 0 || x.Value > m {
			m = x.Value
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank on sorted
// values; 0 for an empty series.
func (s *Series) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	vals := make([]float64, len(s.samples))
	for i, x := range s.samples {
		vals[i] = x.Value
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}

// Slowdown converts (baseline, measured) runtimes to the percentage
// slowdown the paper reports: 100 × (measured/baseline − 1).
func Slowdown(baseline, measured float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return 100 * (measured/baseline - 1)
}

// Pct formats a fraction as a percentage string with one decimal.
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", 100*frac) }

// MeanOf averages a slice of float64 (0 for empty).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
