package rowset

import (
	"bufio"
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, rs *Rowset) *Rowset {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

// scalarRowset holds every scalar type, NULLs and edge values.
func scalarRowset() *Rowset {
	s := MustSchema(
		Column{Name: "l", Type: TypeLong},
		Column{Name: "d", Type: TypeDouble},
		Column{Name: "t", Type: TypeText},
		Column{Name: "b", Type: TypeBool},
		Column{Name: "ts", Type: TypeDate},
	)
	rs := New(s)
	now := time.Now().UTC().Truncate(time.Microsecond)
	mustAppend(rs, int64(-42), 3.125, "héllo", true, now)
	mustAppend(rs, nil, nil, nil, nil, nil)
	mustAppend(rs, int64(1<<40), math.Inf(1), "", false, time.Unix(0, 0).UTC())
	return rs
}

// nestedRowset holds a nested table column, one nested table empty.
func nestedRowset() *Rowset {
	inner := New(MustSchema(Column{Name: "p", Type: TypeText}, Column{Name: "q", Type: TypeLong}))
	mustAppend(inner, "TV", int64(1))
	mustAppend(inner, "Beer", int64(6))
	outer := New(MustSchema(
		Column{Name: "id", Type: TypeLong},
		Column{Name: "purchases", Type: TypeTable, Nested: inner.Schema()},
	))
	mustAppend(outer, int64(1), inner)
	mustAppend(outer, int64(2), New(inner.Schema())) // empty nested table
	return outer
}

func TestCodecScalars(t *testing.T) {
	rs := scalarRowset()
	got := roundTrip(t, rs)
	if !got.Schema().Equal(rs.Schema()) {
		t.Fatalf("schema mismatch: %v vs %v", got.Schema(), rs.Schema())
	}
	if got.Len() != rs.Len() {
		t.Fatalf("len = %d want %d", got.Len(), rs.Len())
	}
	for i := range rs.Rows() {
		for j := range rs.Row(i) {
			a, b := rs.Row(i)[j], got.Row(i)[j]
			if ta, ok := a.(time.Time); ok {
				if !ta.Equal(b.(time.Time)) {
					t.Errorf("row %d col %d: %v != %v", i, j, a, b)
				}
				continue
			}
			if a != b {
				t.Errorf("row %d col %d: %#v != %#v", i, j, a, b)
			}
		}
	}
}

func TestCodecNested(t *testing.T) {
	got := roundTrip(t, nestedRowset())
	n := got.Row(0)[1].(*Rowset)
	if n.Len() != 2 || n.Row(1)[0] != "Beer" || n.Row(1)[1] != int64(6) {
		t.Errorf("nested decode wrong: %v", n.Rows())
	}
	if got.Row(1)[1].(*Rowset).Len() != 0 {
		t.Error("empty nested table must decode empty")
	}
}

func TestCodecEmptyRowset(t *testing.T) {
	rs := New(MustSchema())
	got := roundTrip(t, rs)
	if got.Len() != 0 || got.Schema().Len() != 0 {
		t.Error("empty rowset round trip failed")
	}
}

func TestCodecBadInput(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
	if _, err := Decode(bytes.NewReader([]byte{99})); err == nil {
		t.Error("bad version must error")
	}
	// Truncated stream.
	var buf bytes.Buffer
	rs := New(MustSchema(Column{Name: "x", Type: TypeText}))
	mustAppend(rs, "abcdefghij")
	if err := rs.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input must error")
	}
}

// hugeCounts are short inputs that claim 2^62 rows (of no columns) and 2^62
// columns: each must be a decode error, not a makeslice panic.
var hugeCounts = [][]byte{
	{codecVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
	{codecVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
}

func TestCodecHugeCounts(t *testing.T) {
	for _, in := range hugeCounts {
		if _, err := Decode(bytes.NewReader(in)); err == nil {
			t.Errorf("Decode(% x) accepted", in)
		}
	}
}

// FuzzDecode: Decode never panics, and every input it accepts re-encodes to
// the bytes it was read from — so it also decodes back to the same rowset.
func FuzzDecode(f *testing.F) {
	for _, rs := range []*Rowset{scalarRowset(), nestedRowset(), New(MustSchema())} {
		var buf bytes.Buffer
		if err := rs.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, in := range hugeCounts {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		br := bufio.NewReader(r)
		rs, err := DecodeFrom(br)
		if err != nil {
			return
		}
		read := in[:len(in)-r.Len()-br.Buffered()]
		var out bytes.Buffer
		if err := rs.Encode(&out); err != nil {
			t.Fatalf("Encode of a decoded rowset: %v", err)
		}
		if !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("re-encoding % x differs from input % x", out.Bytes(), read)
		}
	})
}

// Property: arbitrary (long, double, text) rows survive a round trip.
func TestCodecRoundTripProperty(t *testing.T) {
	s := MustSchema(
		Column{Name: "l", Type: TypeLong},
		Column{Name: "d", Type: TypeDouble},
		Column{Name: "t", Type: TypeText},
	)
	f := func(ls []int64, ds []float64, ts []string) bool {
		rs := New(s)
		n := len(ls)
		if len(ds) < n {
			n = len(ds)
		}
		if len(ts) < n {
			n = len(ts)
		}
		for i := 0; i < n; i++ {
			if math.IsNaN(ds[i]) {
				ds[i] = 0
			}
			mustAppend(rs, ls[i], ds[i], ts[i])
		}
		var buf bytes.Buffer
		if err := rs.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Row(i)[0] != ls[i] || got.Row(i)[1] != ds[i] || got.Row(i)[2] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
