package rowset

import (
	"math"
	"slices"
	"strings"
)

// SortByKeys stably sorts items in place by their parallel key rows: keys[i]
// holds the precomputed ORDER BY key values for items[i], and desc[k] flips
// the k-th key. Both slices are permuted together. It returns the path it
// took, which the sort span's label names:
//
//   - "presorted": one LONG, DOUBLE or TEXT key already in order; nothing
//     moved;
//   - "radix": one LONG or DOUBLE key, sorted in linear time (radixOrder);
//   - "compare": a comparator sort — one TEXT key by the strings, anything
//     else (several keys, a NULL, a NaN, mixed types) by Compare.
//
// It is the one sort used by every ORDER BY in the module (SQL SELECT, SHAPE
// children via SELECT, prediction-join output), so key semantics — NULL
// first, numeric cross-type comparison — stay identical everywhere.
func SortByKeys[T any](items []T, keys []Row, desc []bool) string {
	if len(items) < 2 || len(keys) == 0 {
		return "presorted"
	}
	var idx []int32
	path := "compare"
	if len(keys[0]) == 1 {
		idx, path = sortSingleTyped(keys, len(desc) > 0 && desc[0])
	}
	switch {
	case path == "presorted":
		return path
	case idx == nil:
		// The index values are unique, so breaking key ties on the original
		// index reproduces stable order exactly while letting the faster
		// unstable pattern-defeating quicksort run.
		idx = identity(len(items))
		slices.SortFunc(idx, func(a, b int32) int {
			ka, kb := keys[a], keys[b]
			for k := range ka {
				c := Compare(ka[k], kb[k])
				if c == 0 {
					continue
				}
				if k < len(desc) && desc[k] {
					return -c
				}
				return c
			}
			return int(a - b)
		})
		path = "compare"
	}
	applyPermutation(idx, items, keys)
	return path
}

func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// sortSingleTyped orders a single key column that is all LONG, all DOUBLE
// without NaN, or all TEXT, with no interface dispatch past one extraction
// pass, and returns the permutation and its path; a nil permutation means
// the keys are presorted, or, with an empty path, that the column is none of
// those and Compare must order it. Each of the three is a total order equal
// to Compare's, so a stable sort by it is the comparator sort's result.
func sortSingleTyped(keys []Row, desc bool) ([]int32, string) {
	if _, ok := keys[0][0].(string); ok {
		return sortStrings(keys, desc)
	}
	flip := uint64(0)
	if desc {
		flip = math.MaxUint64
	}
	_, ints := keys[0][0].(int64)
	u := make([]uint64, len(keys))
	for i, k := range keys {
		switch v := k[0].(type) {
		case int64:
			if !ints {
				return nil, ""
			}
			u[i] = uint64(v) ^ 1<<63 ^ flip
		case float64:
			if ints || v != v {
				return nil, "" // a NaN ties every number under Compare
			}
			u[i] = floatOrder(v) ^ flip
		default:
			return nil, ""
		}
	}
	for i := 1; i < len(u); i++ {
		if u[i-1] > u[i] {
			return radixOrder(u), "radix"
		}
	}
	return nil, "presorted"
}

// floatOrder maps a non-NaN float64 to a uint64 in the same order, −0 and +0
// to one value.
func floatOrder(f float64) uint64 {
	if f == 0 {
		f = 0 // folds −0 into +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixOrder returns the stable ascending order of u: a least-significant-
// byte-first radix sort, whose histograms one pass counts and which skips
// every byte on which all keys agree.
func radixOrder(u []uint64) []int32 {
	var counts [8][256]int32
	for _, x := range u {
		for b := range counts {
			counts[b][byte(x>>(8*b))]++
		}
	}
	idx, idx2, u2 := identity(len(u)), make([]int32, len(u)), make([]uint64, len(u))
	for b := range counts {
		c := &counts[b]
		if int(c[byte(u[0]>>(8*b))]) == len(u) {
			continue
		}
		at := int32(0)
		for d, k := range c {
			c[d], at = at, at+k
		}
		for i, x := range u {
			d := byte(x >> (8 * b))
			u2[c[d]], idx2[c[d]] = x, idx[i]
			c[d]++
		}
		u, u2, idx, idx2 = u2, u, idx2, idx
	}
	return idx
}

// sortStrings is sortSingleTyped for a TEXT column.
func sortStrings(keys []Row, desc bool) ([]int32, string) {
	vals := make([]string, len(keys))
	for i, k := range keys {
		v, ok := k[0].(string)
		if !ok {
			return nil, ""
		}
		vals[i] = v
	}
	cmp := func(a, b int32) int {
		c := strings.Compare(vals[a], vals[b])
		if desc {
			c = -c
		}
		if c != 0 {
			return c
		}
		return int(a - b)
	}
	idx := identity(len(keys))
	if slices.IsSortedFunc(idx, cmp) {
		return nil, "presorted"
	}
	slices.SortFunc(idx, cmp)
	return idx, "compare"
}

// applyPermutation reorders items and keys in place so that position i
// receives the element previously at idx[i], rotating each permutation cycle
// — no scratch slices. idx is consumed (visited entries are marked negative).
func applyPermutation[T any](idx []int32, items []T, keys []Row) {
	for i := range int32(len(idx)) {
		if idx[i] < 0 {
			continue // already placed by an earlier cycle
		}
		j := i
		tmpItem, tmpKey := items[i], keys[i]
		for {
			k := idx[j]
			idx[j] = -1 - k
			if k == i {
				items[j], keys[j] = tmpItem, tmpKey
				break
			}
			items[j], keys[j] = items[k], keys[k]
			j = k
		}
	}
}
