package rowset

import (
	"cmp"
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
		idx, path = sortColumn(keys, 0, len(desc) > 0 && desc[0])
	} else {
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
	}
	if idx != nil {
		applyPermutation(idx, items, keys)
	}
	return path
}

// SortByColumn is SortByKeys for rows ordered by one of their own columns,
// col: it reads every key straight from its row, so it allocates no key rows,
// and nothing at all when the rows are already in order.
func SortByColumn(rows []Row, col int, desc bool) string {
	if len(rows) < 2 {
		return "presorted"
	}
	idx, path := sortColumn(rows, col, desc)
	if idx != nil {
		applyPermutation(idx, rows, rows) // the rows are their own keys
	}
	return path
}

// sortColumn orders keys by their column col alone: by sortSingleTyped when
// the column is typed, else by a comparator sort under Compare. A nil
// permutation means the keys are presorted. The original index breaks ties,
// which reproduces a stable sort exactly while letting the faster unstable
// pattern-defeating quicksort run.
func sortColumn(keys []Row, col int, desc bool) ([]int32, string) {
	if idx, path := sortSingleTyped(keys, col, desc); path != "" {
		return idx, path
	}
	idx := identity(len(keys))
	slices.SortFunc(idx, func(a, b int32) int {
		c := Compare(keys[a][col], keys[b][col])
		if desc {
			c = -c
		}
		return cmp.Or(c, int(a-b))
	})
	return idx, "compare"
}

func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// sortSingleTyped orders column col of keys when it is all LONG, all DOUBLE
// without NaN, or all TEXT, with no interface dispatch past one extraction
// pass, and returns the permutation and its path; a nil permutation means
// the keys are presorted, or, with an empty path, that the column is none of
// those and Compare must order it. Each of the three is a total order equal
// to Compare's, so a stable sort by it is the comparator sort's result. The
// order is checked before anything is allocated.
func sortSingleTyped(keys []Row, col int, desc bool) ([]int32, string) {
	if _, ok := keys[0][col].(string); ok {
		return sortStrings(keys, col, desc)
	}
	flip := uint64(0)
	if desc {
		flip = math.MaxUint64
	}
	_, ints := keys[0][col].(int64)
	var u []uint64
	prev := uint64(0)
	for i, k := range keys {
		x, ok := orderImage(k[col], ints, flip)
		switch {
		case !ok:
			return nil, ""
		case u != nil:
			u[i] = x
		case i > 0 && x < prev: // out of order: image the prefix, in order
			u = make([]uint64, len(keys))
			for j, k := range keys[:i] {
				u[j], _ = orderImage(k[col], ints, flip)
			}
			u[i] = x
		}
		prev = x
	}
	if u == nil {
		return nil, "presorted"
	}
	return radixOrder(u), "radix"
}

// orderImage maps a LONG (ints) or DOUBLE key to a uint64 in its order,
// inverted by flip, with ok=false for anything else and for a NaN.
func orderImage(v Value, ints bool, flip uint64) (uint64, bool) {
	switch v := v.(type) {
	case int64:
		return uint64(v) ^ 1<<63 ^ flip, ints
	case float64:
		return floatOrder(v) ^ flip, !ints && v == v // a NaN ties every number under Compare
	default:
		return 0, false
	}
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
func sortStrings(keys []Row, col int, desc bool) ([]int32, string) {
	sorted, prev := true, ""
	for i, k := range keys {
		v, ok := k[col].(string)
		if !ok {
			return nil, ""
		}
		if c := strings.Compare(prev, v); i > 0 && (c > 0 && !desc || c < 0 && desc) {
			sorted = false
		}
		prev = v
	}
	if sorted {
		return nil, "presorted"
	}
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = k[col].(string)
	}
	order := func(a, b int32) int {
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
	slices.SortFunc(idx, order)
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
