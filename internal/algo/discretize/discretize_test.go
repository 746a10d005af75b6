package discretize

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEqualRanges(t *testing.T) {
	cuts := EqualRanges([]float64{0, 10}, 5)
	want := []float64{2, 4, 6, 8}
	if len(cuts) != 4 {
		t.Fatalf("cuts = %v", cuts)
	}
	for i, w := range want {
		if cuts[i] != w {
			t.Errorf("cut %d = %v want %v", i, cuts[i], w)
		}
	}
	if EqualRanges(nil, 5) != nil {
		t.Error("empty input must yield no cuts")
	}
	if EqualRanges([]float64{3, 3, 3}, 4) != nil {
		t.Error("constant input must yield no cuts")
	}
	if EqualRanges([]float64{1, 2}, 1) != nil {
		t.Error("k<2 must yield no cuts")
	}
}

func TestEqualAreas(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	cuts := EqualAreas(vals, 4)
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v", cuts)
	}
	if cuts[0] != 25 || cuts[1] != 50 || cuts[2] != 75 {
		t.Errorf("quantile cuts = %v", cuts)
	}
}

func TestEqualAreasSkewed(t *testing.T) {
	// Heavily skewed data: most mass at 1, a few large outliers.
	vals := []float64{1, 1, 1, 1, 1, 1, 1, 1, 100, 1000}
	cuts := EqualAreas(vals, 2)
	if len(cuts) != 1 || cuts[0] != 1 {
		t.Errorf("skewed median cut = %v", cuts)
	}
	// No empty last bucket: cut at max dropped.
	vals2 := []float64{1, 2, 3, 3, 3, 3}
	cuts2 := EqualAreas(vals2, 3)
	for _, c := range cuts2 {
		if c >= 3 {
			t.Errorf("cut at max leaks empty bucket: %v", cuts2)
		}
	}
}

func TestEntropyMDLSeparatesClasses(t *testing.T) {
	// Class 0 clustered near 0, class 1 near 100: one clean split expected.
	var vals []float64
	var labels []int
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		vals = append(vals, rng.Float64()*10)
		labels = append(labels, 0)
		vals = append(vals, 90+rng.Float64()*10)
		labels = append(labels, 1)
	}
	cuts := EntropyMDL(vals, labels, 0)
	if len(cuts) != 1 {
		t.Fatalf("cuts = %v, want exactly one", cuts)
	}
	if cuts[0] < 10 || cuts[0] > 90 {
		t.Errorf("cut %v not between the classes", cuts[0])
	}
}

func TestEntropyMDLNoSignal(t *testing.T) {
	// Random labels: MDL must refuse to split.
	rng := rand.New(rand.NewSource(7))
	var vals []float64
	var labels []int
	for i := 0; i < 200; i++ {
		vals = append(vals, rng.Float64())
		labels = append(labels, rng.Intn(2))
	}
	cuts := EntropyMDL(vals, labels, 0)
	if len(cuts) > 2 {
		t.Errorf("MDL should mostly refuse random splits, got %d cuts", len(cuts))
	}
}

func TestEntropyMDLMaxBuckets(t *testing.T) {
	// Three clearly separated classes but maxBuckets = 2 allows only 1 cut.
	var vals []float64
	var labels []int
	for i := 0; i < 50; i++ {
		vals = append(vals, float64(i%3*100)+float64(i))
		labels = append(labels, i%3)
	}
	cuts := EntropyMDL(vals, labels, 2)
	if len(cuts) > 1 {
		t.Errorf("maxBuckets=2 but %d cuts", len(cuts))
	}
}

func TestCutsDispatch(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, m := range []string{MethodEqualRanges, MethodEqualAreas, "", MethodEntropy} {
		if _, err := Cuts(m, vals, nil, 4); err != nil {
			t.Errorf("Cuts(%q): %v", m, err)
		}
	}
	if _, err := Cuts("BOGUS", vals, nil, 4); err == nil {
		t.Error("unknown method must fail")
	}
	// buckets<=0 falls back to the default without error.
	if _, err := Cuts(MethodEqualAreas, vals, nil, 0); err != nil {
		t.Errorf("default buckets: %v", err)
	}
}

// Property: cuts are always strictly ascending and within the value range.
func TestCutsOrderedProperty(t *testing.T) {
	f := func(raw []float64, k uint8) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !isNaNOrInf(v) {
				vals = append(vals, v)
			}
		}
		buckets := int(k%10) + 2
		for _, cuts := range [][]float64{
			EqualRanges(vals, buckets),
			EqualAreas(vals, buckets),
		} {
			if !sort.Float64sAreSorted(cuts) {
				return false
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i] == cuts[i-1] {
					return false
				}
			}
			if len(vals) > 0 && len(cuts) > 0 {
				lo, hi := vals[0], vals[0]
				for _, v := range vals {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				if cuts[0] < lo || cuts[len(cuts)-1] > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func isNaNOrInf(v float64) bool {
	return v != v || v > 1e300 || v < -1e300
}

// equalAreasBySort is EqualAreas as it was before selection: sort a copy, read
// the quantiles, drop cuts at the maximum. It is the reference the selection
// must match.
func equalAreasBySort(values []float64, k int) []float64 {
	if len(values) == 0 || k < 2 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	slices.Sort(sorted)
	n := len(sorted)
	var out []float64
	for i := 1; i < k; i++ {
		if c := sorted[i*n/k]; c < sorted[n-1] {
			out = append(out, c)
		}
	}
	return dedupe(out)
}

// TestEqualAreasMatchesSort: selection yields the sort-based cuts on seeded
// inputs with heavy duplicates, NaN, ±Inf and ±0. Cuts compare as float64
// (NaN equal to NaN): -0 and +0 tie in sort order, so either may be the one
// selected.
func TestEqualAreasMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, vals := range [][]float64{
		{nan}, {nan, nan, nan}, {1, nan}, {nan, 2, nan, 1}, {negZero, 0, negZero, 0},
		{inf, -inf, nan, 0}, {3, 3, 3, 3, 3}, {5, 4, 3, 2, 1, 0},
	} {
		for k := 2; k <= 6; k++ {
			if got, want := EqualAreas(vals, k), equalAreasBySort(vals, k); !slices.EqualFunc(got, want, same) {
				t.Fatalf("EqualAreas(%v, %d) = %v, sorting gives %v", vals, k, got, want)
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5000)
		if trial%4 == 0 {
			n = 1 + rng.Intn(12)
		}
		distinct := 1 + rng.Intn(n) // small counts give heavy duplicates
		vals := make([]float64, n)
		for i := range vals {
			switch r := rng.Intn(20); {
			case r == 0:
				vals[i] = special[rng.Intn(len(special))]
			case trial%3 == 0:
				vals[i] = float64(rng.Intn(distinct))
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		if trial%5 == 0 {
			slices.Sort(vals) // sorted input: the median-of-three's best case
		}
		k := 2 + rng.Intn(15)
		got, want := EqualAreas(vals, k), equalAreasBySort(vals, k)
		if !slices.EqualFunc(got, want, same) {
			t.Fatalf("trial %d (n=%d k=%d): EqualAreas = %v, sorting gives %v", trial, n, k, got, want)
		}
	}
}

var benchCuts []float64

func BenchmarkEqualAreas(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = float64(rng.Intn(90)) + rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCuts = EqualAreas(vals, 5)
	}
}
