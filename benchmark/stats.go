package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed call or user op: when it ended (ns since the run's
// epoch), how long the calls into internal/core took, and how many payload
// bytes it moved. wall, set on user ops only, also counts the benchmark's
// own bookkeeping between those calls; tracing overhead is read from it.
type sample struct {
	end   int64
	dur   int64
	wall  int64
	bytes int64
}

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// tailLevel picks the highest percentile that still has at least ten
// samples beyond it, so the reported tail is never one outlier. ok is
// false when even p75 does not have ten.
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= 10-1e-9 { // 100 × (1 - 0.9) is 9.999…
			return p, true
		}
	}
	return 0, false
}

// sortedMs extracts one time of each sample in milliseconds, sorted.
func sortedMs(ss []sample, ns func(sample) int64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(ns(s)) / 1e6
	}
	sort.Float64s(out)
	return out
}

// durationsMs is sortedMs of the time spent inside internal/core.
func durationsMs(ss []sample) []float64 {
	return sortedMs(ss, func(s sample) int64 { return s.dur })
}

// windowRates buckets samples by end time into whole windows covering
// [from, to) and returns value(s)-per-second for each complete window. A
// trailing partial window is dropped: it would read low.
func windowRates(ss []sample, from, to int64, window time.Duration, value func(sample) float64) []float64 {
	w := int64(window)
	n := int((to - from) / w)
	if n <= 0 {
		return nil
	}
	sums := make([]float64, n)
	for _, s := range ss {
		if s.end < from {
			continue
		}
		i := int((s.end - from) / w)
		if i < n {
			sums[i] += value(s)
		}
	}
	for i := range sums {
		sums[i] /= window.Seconds()
	}
	return sums
}

// quartileSpread is the driver's steadiness figure: the distance between
// the first and third quartile as a share of the median, with the
// quartiles computed as Python's statistics.quantiles(values, n=4) does
// (the "exclusive" method).
func quartileSpread(values []float64) (q1, med, q3, spread float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	q1, med, q3 = q(1), q(2), q(3)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return
}
