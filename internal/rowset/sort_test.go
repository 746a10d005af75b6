package rowset

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// comparatorOrder is the order SortByKeys gave every single-key column before
// it had typed paths: Compare, flipped for DESC, ties broken by position.
func comparatorOrder(keys []Row, desc bool) []int32 {
	idx := identity(len(keys))
	slices.SortFunc(idx, func(a, b int32) int {
		c := Compare(keys[a][0], keys[b][0])
		if desc {
			c = -c
		}
		if c != 0 {
			return c
		}
		return int(a - b)
	})
	return idx
}

// sortKey decodes one key value from a fuzz byte. kind 0 gives LONGs, 1
// DOUBLEs without NaN, 2 TEXT — the three typed paths — and 3 any of those
// plus NULL and NaN. Small bytes pick the values at the edges: the int64 and
// ±2^53 limits, ±0, ±Inf; the rest spread over several bytes of the key.
func sortKey(kind, b byte) Value {
	ints := []Value{int64(math.MinInt64), int64(math.MaxInt64), int64(1<<53 + 1), int64(-1 << 53), int64(0), int64(-1)}
	floats := []Value{math.Copysign(0, -1), 0.0, math.Inf(1), math.Inf(-1), float64(1 << 53), -1.5}
	switch kind % 4 {
	case 0:
		if int(b) < len(ints) {
			return ints[b]
		}
		return int64(int8(b)) << (8 * (b % 7))
	case 1:
		if int(b) < len(floats) {
			return floats[b]
		}
		return math.Ldexp(float64(int8(b)), int(b%61)-30)
	case 2:
		return string(rune('a' + b%5))
	}
	switch b % 4 {
	case 0:
		return nil
	case 1:
		return math.NaN()
	}
	return sortKey(b/4%3, b/12)
}

// FuzzSortByKeys: whatever path SortByKeys takes on one key, its permutation
// is the comparator sort's, and a column of one typed kind never takes the
// comparator path unless it is TEXT.
func FuzzSortByKeys(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, false, byte(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 1, 200, 100}, true, byte(1))
	f.Add([]byte{10, 20, 30, 40, 40, 50}, false, byte(1))
	f.Add([]byte{50, 40, 40, 30}, true, byte(0))
	f.Add([]byte{4, 3, 2, 1, 0}, true, byte(2))
	f.Add([]byte{0, 1, 2, 3, 13, 25, 37, 200}, false, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, desc bool, kind byte) {
		keys := make([]Row, len(data))
		for i, b := range data {
			keys[i] = Row{sortKey(kind, b)}
		}
		want := comparatorOrder(keys, desc)
		items := identity(len(keys))
		path := SortByKeys(items, slices.Clone(keys), []bool{desc})
		if !slices.Equal(items, want) {
			t.Fatalf("%s path gave %v, the comparator sort %v (keys %v, desc %v)", path, items, want, keys, desc)
		}
		if kind%4 < 2 && len(keys) > 1 && path == "compare" {
			t.Errorf("a column of kind %d took the compare path", kind%4)
		}
		// The same keys as the second column of the rows they order.
		rows := make([]Row, len(keys))
		for i, k := range keys {
			rows[i] = Row{int32(i), k[0]}
		}
		if got := SortByColumn(rows, 1, desc); got != path {
			t.Errorf("SortByColumn took %s, SortByKeys %s (keys %v, desc %v)", got, path, keys, desc)
		}
		for i, r := range rows {
			if r[0] != want[i] {
				t.Fatalf("SortByColumn put row %v at %d, the comparator sort row %d (keys %v, desc %v)", r[0], i, want[i], keys, desc)
			}
		}
	})
}

// TestSortByColumnAllocs: rows already in order by the column cost nothing to
// sort; rows out of order cost the radix pass's buffers, never key rows.
func TestSortByColumnAllocs(t *testing.T) {
	rows := make([]Row, 50000)
	for i := range rows {
		rows[i] = Row{int64(i), float64(i) / 3, fmt.Sprint(100000 + i)}
	}
	for col := range rows[0] {
		if n := testing.AllocsPerRun(5, func() { SortByColumn(rows, col, false) }); n != 0 {
			t.Errorf("column %d in order: %v allocations", col, n)
		}
	}
	rev := slices.Clone(rows)
	slices.Reverse(rev)
	if n := testing.AllocsPerRun(1, func() { SortByColumn(slices.Clone(rev), 0, false) }); n > 6 {
		t.Errorf("column 0 reversed: %v allocations, want the clone and the radix buffers", n)
	}
}

// TestSortPaths: which path a key column takes.
func TestSortPaths(t *testing.T) {
	for _, c := range []struct {
		keys []Value
		desc bool
		want string
	}{
		{[]Value{int64(1), int64(2), int64(2), int64(5)}, false, "presorted"},
		{[]Value{int64(5), int64(2), int64(2), int64(1)}, true, "presorted"},
		{[]Value{2.5, math.Copysign(0, -1), 0.0, -1.0}, true, "presorted"},
		{[]Value{int64(3), int64(1), int64(2)}, false, "radix"},
		{[]Value{1.5, math.Inf(-1), 0.0}, true, "radix"},
		{[]Value{"a", "b", "b"}, false, "presorted"},
		{[]Value{"b", "a"}, false, "compare"},
		{[]Value{int64(1), 2.0}, false, "compare"},
		{[]Value{1.0, math.NaN()}, false, "compare"},
		{[]Value{nil, int64(1)}, false, "compare"},
	} {
		keys := make([]Row, len(c.keys))
		for i, v := range c.keys {
			keys[i] = Row{v}
		}
		rows := slices.Clone(keys)
		if got := SortByKeys(identity(len(keys)), keys, []bool{c.desc}); got != c.want {
			t.Errorf("SortByKeys(%v, desc %v) took %q, want %q", c.keys, c.desc, got, c.want)
		}
		if got := SortByColumn(rows, 0, c.desc); got != c.want {
			t.Errorf("SortByColumn(%v, desc %v) took %q, want %q", c.keys, c.desc, got, c.want)
		}
	}
}
