package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported quantile: with
// fewer, the value is one outlier's timing rather than a property of the
// distribution.
const minBeyond = 10

// quantile returns the q-quantile of an ascending-sorted sample by linear
// interpolation between closest ranks (the same rule Python's
// statistics.quantiles(method="inclusive") uses); 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// tailQuantile picks the quantile reported as p95_ms for a run of n samples:
// 0.95 when at least minBeyond samples lie beyond it, otherwise the highest
// quantile that still has minBeyond samples beyond, and the median when the
// run is too short to support any tail at all (n < 2*minBeyond).
func tailQuantile(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return math.Min(0.95, float64(n-minBeyond)/float64(n))
}

// spread summarises repeated measurements of one metric the way the A/A
// acceptance rule reads them: median, exclusive quartiles (Python's
// statistics.quantiles(values, n=4) default), and the interquartile distance
// as a share of the median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Rel    float64 `json:"rel_spread"`
	N      int     `json:"n"`
}

func summarize(values []float64) spread {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	s := spread{Median: quantile(xs, 0.5), N: len(xs)}
	s.Q1, s.Q3 = exclusiveQuantile(xs, 0.25), exclusiveQuantile(xs, 0.75)
	if s.Median != 0 {
		s.Rel = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return s
}

// exclusiveQuantile is the (n+1)-rank rule, clamped to the sample's range.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}
