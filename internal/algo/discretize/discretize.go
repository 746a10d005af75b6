// Package discretize implements the bucketing policies behind the paper's
// DISCRETIZED attribute type (Section 3.2.2): continuous inputs that the
// provider must transform "into a number of ORDERED states".
//
// Three policies are provided:
//
//   - EqualRanges — fixed-width bins over [min, max]
//   - EqualAreas  — equal-frequency (quantile) bins
//   - EntropyMDL  — supervised recursive binary splitting with the
//     Fayyad–Irani MDL stopping criterion, using class labels
//
// All functions return ascending, deduplicated cut points; k buckets need
// k-1 cuts. Values route to buckets with bucket i = (cuts[i-1], cuts[i]].
package discretize

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Method names accepted by the DMX DISCRETIZED(<method>, <buckets>) syntax.
const (
	MethodEqualRanges = "EQUAL_RANGES"
	MethodEqualAreas  = "EQUAL_AREAS"
	MethodEntropy     = "ENTROPY"
)

// DefaultBuckets is used when DISCRETIZED gives no bucket count.
const DefaultBuckets = 5

// Cuts dispatches on the method name. labels may be nil for the
// unsupervised methods; EntropyMDL requires them (one class index per
// value) and falls back to EqualAreas when labels are absent.
func Cuts(method string, values []float64, labels []int, buckets int) ([]float64, error) {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	switch method {
	case MethodEqualRanges:
		return EqualRanges(values, buckets), nil
	case MethodEqualAreas, "":
		return EqualAreas(values, buckets), nil
	case MethodEntropy:
		if labels == nil {
			return EqualAreas(values, buckets), nil
		}
		return EntropyMDL(values, labels, buckets), nil
	}
	return nil, fmt.Errorf("discretize: unknown method %q", method)
}

// EqualRanges returns k-1 evenly spaced cuts across [min, max]. Degenerate
// inputs (empty, constant) return no cuts.
func EqualRanges(values []float64, k int) []float64 {
	if len(values) == 0 || k < 2 {
		return nil
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return nil
	}
	cuts := make([]float64, 0, k-1)
	step := (hi - lo) / float64(k)
	for i := 1; i < k; i++ {
		cuts = append(cuts, lo+step*float64(i))
	}
	return dedupe(cuts)
}

// EqualAreas returns quantile cuts so each bucket holds roughly the same
// number of values. Cut i is the (i*n/k)-th value in slices.Sort order
// (cmp.Less: NaNs first); each is placed by selection on the range right of
// the one before, so no full sort is needed.
func EqualAreas(values []float64, k int) []float64 {
	if len(values) == 0 || k < 2 {
		return nil
	}
	a := append([]float64(nil), values...)
	// Move the NaNs to the front, where the sort order puts them, so that
	// selection compares with < alone.
	nans := 0
	for i, v := range a {
		if v != v {
			a[i], a[nans] = a[nans], v
			nans++
		}
	}
	cuts := make([]float64, 0, k-1)
	n, lo := len(a), nans
	for i := 1; i < k; i++ {
		idx := i * n / k
		if idx >= nans {
			selectNth(a[lo:], idx-lo)
			lo = idx
		}
		cuts = append(cuts, a[idx])
	}
	// Drop cuts at the maximum (they would create an empty last bucket). It
	// lies in a[lo:], which holds no NaN unless every value is one.
	maxV := a[n-1]
	for _, v := range a[lo:] {
		maxV = max(maxV, v)
	}
	out := cuts[:0]
	for _, c := range cuts {
		if c < maxV {
			out = append(out, c)
		}
	}
	return dedupe(out)
}

// selectNth reorders a, which holds no NaN, so that a[nth] is the value
// slices.Sort would put there, with nothing before it greater and nothing
// after it smaller: Hoare's selection with a median-of-three pivot. Input
// that defeats the pivot past 4·log2(n) rounds is sorted instead.
func selectNth(a []float64, nth int) {
	lo, hi := 0, len(a)-1
	for budget := 4 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		p := median3(a[lo], a[(lo+hi)/2], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		// a[lo..j] <= p, a[i..hi] >= p, and everything between equals p.
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

func median3(x, y, z float64) float64 {
	return max(min(x, y), min(max(x, y), z))
}

// EntropyMDL recursively splits values to minimize class entropy, accepting
// a split only when the information gain passes the Fayyad–Irani MDL test.
// maxBuckets caps recursion (0 = unlimited). labels[i] is the class of
// values[i] as a small non-negative int.
func EntropyMDL(values []float64, labels []int, maxBuckets int) []float64 {
	if len(values) != len(labels) || len(values) == 0 {
		return nil
	}
	type pair struct {
		v float64
		c int
	}
	pts := make([]pair, len(values))
	for i := range values {
		pts[i] = pair{values[i], labels[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	sv := make([]float64, len(pts))
	sc := make([]int, len(pts))
	nClasses := 0
	for i, p := range pts {
		sv[i], sc[i] = p.v, p.c
		if p.c+1 > nClasses {
			nClasses = p.c + 1
		}
	}
	var cuts []float64
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if maxBuckets > 0 && len(cuts)+1 >= maxBuckets {
			return
		}
		cut, ok := bestMDLSplit(sv, sc, lo, hi, nClasses)
		if !ok {
			return
		}
		// cut is an index: split between cut-1 and cut.
		cuts = append(cuts, (sv[cut-1]+sv[cut])/2)
		rec(lo, cut)
		rec(cut, hi)
	}
	rec(0, len(sv))
	sort.Float64s(cuts)
	return dedupe(cuts)
}

// bestMDLSplit finds the boundary in [lo,hi) with maximum information gain
// and applies the MDL acceptance test. Returns the split index (first index
// of the right half) and whether the split is accepted.
func bestMDLSplit(values []float64, labels []int, lo, hi, nClasses int) (int, bool) {
	n := hi - lo
	if n < 4 {
		return 0, false
	}
	total := make([]float64, nClasses)
	for i := lo; i < hi; i++ {
		total[labels[i]]++
	}
	baseEnt := entropy(total, float64(n))

	left := make([]float64, nClasses)
	bestGain, bestIdx := 0.0, -1
	var bestLeftEnt, bestRightEnt float64
	var bestLeftK, bestRightK int
	for i := lo + 1; i < hi; i++ {
		left[labels[i-1]]++
		// Only boundary points between distinct values are valid cuts.
		if values[i] == values[i-1] {
			continue
		}
		nl := float64(i - lo)
		nr := float64(hi - i)
		right := make([]float64, nClasses)
		for c := range right {
			right[c] = total[c] - left[c]
		}
		le := entropy(left, nl)
		re := entropy(right, nr)
		gain := baseEnt - (nl*le+nr*re)/float64(n)
		if gain > bestGain {
			bestGain, bestIdx = gain, i
			bestLeftEnt, bestRightEnt = le, re
			bestLeftK, bestRightK = liveClasses(left), liveClasses(right)
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	// Fayyad–Irani MDL criterion.
	k := liveClasses(total)
	delta := math.Log2(math.Pow(3, float64(k))-2) -
		(float64(k)*baseEnt - float64(bestLeftK)*bestLeftEnt - float64(bestRightK)*bestRightEnt)
	threshold := (math.Log2(float64(n)-1) + delta) / float64(n)
	if bestGain <= threshold {
		return 0, false
	}
	return bestIdx, true
}

func entropy(counts []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := c / n
			h -= p * math.Log2(p)
		}
	}
	return h
}

func liveClasses(counts []float64) int {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}

func dedupe(cuts []float64) []float64 {
	if len(cuts) == 0 {
		return nil
	}
	out := cuts[:1]
	for _, c := range cuts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}
