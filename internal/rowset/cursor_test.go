package rowset

import (
	"math"
	"testing"
	"time"
)

func TestCursorRoundTrip(t *testing.T) {
	s, err := NewSchema(Column{Name: "A", Type: TypeLong}, Column{Name: "B", Type: TypeText})
	if err != nil {
		t.Fatal(err)
	}
	rs := New(s)
	mustAppend(rs, int64(1), "x")
	mustAppend(rs, int64(2), "y")
	mustAppend(rs, nil, "z")

	c := rs.Cursor()
	for i := 0; ; i++ {
		r, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			if i != rs.Len() {
				t.Fatalf("cursor yielded %d rows, want %d", i, rs.Len())
			}
			break
		}
		for j := range r {
			if !Equal(r[j], rs.Row(i)[j]) && !(r[j] == nil && rs.Row(i)[j] == nil) {
				t.Fatalf("row %d col %d: got %v want %v", i, j, r[j], rs.Row(i)[j])
			}
		}
	}
	// An exhausted cursor keeps answering (nil, nil).
	if r, err := c.Next(); err != nil || r != nil {
		t.Fatalf("Next after exhaustion = (%v, %v), want (nil, nil)", r, err)
	}
	// Close is idempotent and terminal.
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if r, err := c.Next(); err != nil || r != nil {
		t.Fatalf("Next after Close = (%v, %v), want (nil, nil)", r, err)
	}
}

func TestCursorCloseStopsIteration(t *testing.T) {
	s, err := NewSchema(Column{Name: "A", Type: TypeLong})
	if err != nil {
		t.Fatal(err)
	}
	rs := New(s)
	mustAppend(rs, int64(1))
	mustAppend(rs, int64(2))
	c := rs.Cursor()
	if r, err := c.Next(); err != nil || r == nil {
		t.Fatalf("first Next = (%v, %v)", r, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.Next(); r != nil {
		t.Fatalf("Next after Close yielded %v", r)
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	nested := New(mustSchema(t, Column{Name: "X", Type: TypeLong}))
	vals := []Value{
		nil,
		int64(0), int64(42), int64(-7),
		int64(MaxExactLong), int64(MaxExactLong + 1), int64(-MaxExactLong - 1), int64(math.MaxInt64),
		float64(3.5), float64(42), float64(-0.25), float64(1e300),
		"", "hello", "s\x00weird",
		true, false,
		time.Date(2024, 5, 1, 12, 0, 0, 123, time.UTC),
		nested,
	}
	for _, v := range vals {
		want := Key(v)
		got := string(AppendKey(nil, v))
		if got != want {
			t.Errorf("AppendKey(%v) = %q, want %q", v, got, want)
		}
		// Appending must extend, not clobber, an existing prefix.
		pre := AppendKey([]byte("pre|"), v)
		if string(pre) != "pre|"+want {
			t.Errorf("AppendKey with prefix = %q, want %q", pre, "pre|"+want)
		}
	}
	// LONG and DOUBLE of equal magnitude share a key either way.
	if string(AppendKey(nil, int64(42))) != string(AppendKey(nil, float64(42))) {
		t.Error("AppendKey: 42 (LONG) and 42.0 (DOUBLE) keys differ")
	}
	// Past 2^53 float64 merges integers; the LONG keys must not.
	if Key(int64(MaxExactLong)) == Key(int64(MaxExactLong+1)) || Key(int64(MaxExactLong)) != Key(float64(MaxExactLong)) {
		t.Error("Key: 2^53 and 2^53+1 (LONG) share a key, or 2^53 (LONG) and 2^53 (DOUBLE) do not")
	}
}

// TestAppendKeyPartKeepsComponentsApart: a composite key is shared exactly by
// value lists that are pairwise equal — text holding what looks like another
// component's tag, separator or length bytes included — and LONG/DOUBLE of
// equal magnitude still meet.
func TestAppendKeyPartKeepsComponentsApart(t *testing.T) {
	composite := func(vals ...Value) string {
		var buf []byte
		for _, v := range vals {
			buf = AppendKeyPart(buf, v)
		}
		return string(buf)
	}
	lists := [][]Value{
		{"x|sy", "z"}, {"x", "y|sz"},
		{"", "|"}, {"|", ""},
		{"a", nil}, {nil, "a"}, {"a\x00"},
		{"ab", "c"}, {"a", "bc"}, {"abc"},
		{"\x00\x00\x00\x02sa", "b"}, {"", "\x00\x00\x00\x02sasb"},
		{int64(1), int64(2)}, {int64(12)},
	}
	seen := make(map[string]int)
	for i, l := range lists {
		k := composite(l...)
		if j, dup := seen[k]; dup {
			t.Errorf("%v and %v share the composite key %q", lists[j], l, k)
		}
		seen[k] = i
	}
	if composite(int64(42), "a") != composite(float64(42), "a") {
		t.Error("42 (LONG) and 42.0 (DOUBLE) components differ")
	}
}

func mustSchema(t *testing.T, cols ...Column) *Schema {
	t.Helper()
	s, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSortByKeys(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	keys := []Row{{int64(3)}, {int64(1)}, {int64(2)}, {int64(1)}}
	SortByKeys(items, keys, []bool{false})
	want := []string{"b", "d", "c", "a"} // stable: b before d on equal keys
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("single-key asc: got %v, want %v", items, want)
		}
	}

	items = []string{"a", "b", "c"}
	keys = []Row{{int64(1)}, {int64(3)}, {int64(2)}}
	SortByKeys(items, keys, []bool{true})
	want = []string{"b", "c", "a"}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("single-key desc: got %v, want %v", items, want)
		}
	}

	// Multi-key: first key groups, second key (desc) orders within group.
	items = []string{"a", "b", "c", "d"}
	keys = []Row{
		{int64(1), "x"},
		{int64(0), "x"},
		{int64(1), "y"},
		{int64(0), "y"},
	}
	SortByKeys(items, keys, []bool{false, true})
	want = []string{"d", "b", "c", "a"}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("multi-key: got %v, want %v", items, want)
		}
	}
	// Keys were permuted alongside items.
	if Compare(keys[0][0], int64(0)) != 0 || keys[0][1] != "y" {
		t.Fatalf("keys not permuted with items: %v", keys[0])
	}
}

func BenchmarkAppendKey(b *testing.B) {
	vals := []Value{int64(12345), "customer-9876", float64(98.5), nil, true}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range vals {
			buf = AppendKey(buf, v)
		}
	}
	if len(buf) == 0 {
		b.Fatal("empty key")
	}
}

func BenchmarkKeyAllocating(b *testing.B) {
	vals := []Value{int64(12345), "customer-9876", float64(98.5), nil, true}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			n += len(Key(v))
		}
	}
	if n == 0 {
		b.Fatal("empty key")
	}
}
