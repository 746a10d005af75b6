package rowset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
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
		// A second decode a byte at a time takes the byte-at-a-time path
		// for every row: it must fail where the windowed one fails, and
		// otherwise give the same rowset from the same bytes.
		r1 := bytes.NewReader(in)
		br1 := bufio.NewReaderSize(iotest.OneByteReader(r1), 16)
		rs1, err1 := DecodeFrom(br1)
		if (err == nil) != (err1 == nil) {
			t.Fatalf("windowed decode error %v, byte-at-a-time decode error %v", err, err1)
		}
		if err != nil {
			return
		}
		read := in[:len(in)-r.Len()-br.Buffered()]
		if read1 := in[:len(in)-r1.Len()-br1.Buffered()]; len(read1) != len(read) {
			t.Fatalf("byte-at-a-time decode read %d bytes, windowed %d", len(read1), len(read))
		}
		for _, got := range []*Rowset{rs, rs1} {
			var out bytes.Buffer
			if err := got.Encode(&out); err != nil {
				t.Fatalf("Encode of a decoded rowset: %v", err)
			}
			if !bytes.Equal(out.Bytes(), read) {
				t.Fatalf("re-encoding % x differs from input % x", out.Bytes(), read)
			}
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

// TestDecodeStraddles decodes through a 16-byte buffer over a reader that
// fills it whole, so the decoder's windows end at every multiple of 16
// bytes. Each rowset holds one value kind — LONG, DOUBLE, TEXT, BOOL, DATE,
// nested TABLE — after a pad cell whose length varies by row, so some rows
// lie inside a window (parsed from it) and in others the value runs past a
// window's end (read a byte at a time). Both must give the values encoded.
func TestDecodeStraddles(t *testing.T) {
	inner := New(MustSchema(Column{Name: "p", Type: TypeText}, Column{Name: "q", Type: TypeLong}))
	mustAppend(inner, "TV", int64(1<<33))
	mustAppend(inner, "Beer", int64(-6))
	day := time.Date(2001, 4, 2, 9, 30, 0, 123, time.UTC)
	for _, v := range []Value{int64(-1) << 40, math.Pi, "straddle", true, day, inner} {
		col := Column{Name: "v", Type: TypeOf(v)}
		if col.Type == TypeTable {
			col.Nested = inner.Schema()
		}
		s := MustSchema(Column{Name: "pad", Type: TypeText}, col)
		rows := make([]Row, 40)
		for i := range rows {
			rows[i] = Row{strings.Repeat("x", i%7), v}
		}
		rs := Adopt(s, rows)
		one := MustSchema(col)
		cell := len(encoded(t, Adopt(one, []Row{{v}}))) - len(encoded(t, Adopt(one, nil)))
		off, straddled, inside := len(encoded(t, Adopt(s, nil))), 0, 0
		for _, r := range rows {
			end := off + 2 + len(r[0].(string)) + cell
			if (end-cell)/16 != (end-1)/16 {
				straddled++
			}
			if off/16 == (end-1)/16 {
				inside++
			}
			off = end
		}
		if straddled == 0 || inside == 0 && col.Type != TypeTable {
			t.Fatalf("%v: %d rows straddle a window's end, %d lie inside one", col.Type, straddled, inside)
		}
		in := encoded(t, rs)
		got, err := DecodeFrom(bufio.NewReaderSize(bytes.NewReader(in), 16))
		if err != nil {
			t.Fatalf("%v: 16-byte windows: %v", col.Type, err)
		}
		sameRowsets(t, col.Type.String()+", 16-byte windows", got, rs)
		if got, err = Decode(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
		sameRowsets(t, col.Type.String(), got, rs)
	}
}

// sameRowsets fails unless got and want hold equal values, nested tables
// compared cell by cell and dates in the same location.
func sameRowsets(t *testing.T, what string, got, want *Rowset) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) || got.Len() != want.Len() {
		t.Fatalf("%s: %d rows of %v, want %d of %v", what, got.Len(), got.Schema(), want.Len(), want.Schema())
	}
	for i := range want.Rows() {
		for j, w := range want.Row(i) {
			g := got.Row(i)[j]
			if wt, ok := w.(*Rowset); ok {
				sameRowsets(t, fmt.Sprintf("%s row %d col %d", what, i, j), g.(*Rowset), wt)
			} else if gt, ok := g.(time.Time); !Equal(g, w) || ok && gt.Location() != w.(time.Time).Location() {
				t.Fatalf("%s row %d col %d: %#v, want %#v", what, i, j, g, w)
			}
		}
	}
}

// TestDecodeRejectsNonMinimalInWindow: a malformed cell inside the buffered
// window is rejected with the error the byte-at-a-time path gives.
func TestDecodeRejectsNonMinimalInWindow(t *testing.T) {
	rs := New(MustSchema(Column{Name: "l", Type: TypeLong}, Column{Name: "b", Type: TypeBool}))
	mustAppend(rs, int64(1), true)
	mustAppend(rs, int64(1), true)
	var buf bytes.Buffer
	if err := rs.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ok := buf.Bytes()
	// The second row's LONG 1 is the zigzag byte 0x02; 0x82 0x00 is the
	// same value in a non-minimal form, and a bool byte of 2 is out of range.
	row := []byte{byte(TypeLong), 0x02, byte(TypeBool), 1}
	if !bytes.HasSuffix(ok, row) {
		t.Fatalf("encoding % x does not end in % x", ok, row)
	}
	head := ok[:len(ok)-len(row)]
	for _, bad := range [][]byte{
		{byte(TypeLong), 0x82, 0x00, byte(TypeBool), 1},
		{byte(TypeLong), 0x02, byte(TypeBool), 2},
	} {
		in := append(append([]byte(nil), head...), bad...)
		_, err := Decode(bytes.NewReader(in))
		_, err1 := DecodeFrom(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(in)), 16))
		if err == nil || err1 == nil || err.Error() != err1.Error() {
			t.Fatalf("decode of % x: windowed error %v, byte-at-a-time error %v", in, err, err1)
		}
	}
	if _, err := Decode(bytes.NewReader(append(append([]byte(nil), head...), byte(TypeLong), 0x82, 0x00, byte(TypeBool), 1))); !errors.Is(err, errVarint) {
		t.Fatalf("non-minimal varint: %v, want %v", err, errVarint)
	}
}

// labelsResult has the shape of the bulk prediction result the wire carries:
// n rows of (LONG id, TEXT label, DOUBLE probability), the label one of five
// values, or distinct in every row when unique.
func labelsResult(n int, unique bool) *Rowset {
	s := MustSchema(
		Column{Name: "id", Type: TypeLong},
		Column{Name: "label", Type: TypeText},
		Column{Name: "p", Type: TypeDouble},
	)
	labels := []string{"Low", "Medium", "High", "VeryHigh", "Unknown"}
	rows := make([]Row, n)
	for i := range rows {
		label := labels[i%len(labels)]
		if unique {
			label = fmt.Sprintf("customer-%07d", i)
		}
		rows[i] = Row{int64(100000 + i), label, float64(i) / 7}
	}
	return Adopt(s, rows)
}

func encoded(tb testing.TB, rs *Rowset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := rs.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecAllocs guards the codec's allocation counts: encoding into a
// bufio.Writer allocates nothing, decoding allocates the row slice, a chunk
// per ChunkRows rows and the boxes of numbers and new texts — about 2 per
// row here — and a one-row result allocates no more than the per-row
// decoder it replaced (20, with the reader).
func TestCodecAllocs(t *testing.T) {
	const n = 50000
	big := labelsResult(n, false)
	bw := bufio.NewWriter(io.Discard)
	if got := testing.AllocsPerRun(5, func() {
		if err := big.Encode(bw); err != nil {
			t.Fatal(err)
		}
	}); got > 8 {
		t.Errorf("Encode of %d rows: %.0f allocations, want <= 8", n, got)
	}
	for _, c := range []struct {
		rows  int
		limit float64
	}{{n, 2.1 * n}, {1, 20}} {
		in := encoded(t, labelsResult(c.rows, false))
		if got := testing.AllocsPerRun(5, func() {
			if _, err := Decode(bytes.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		}); got > c.limit {
			t.Errorf("Decode of %d rows: %.0f allocations, want <= %.0f", c.rows, got, c.limit)
		}
	}
}

// BenchmarkCodec encodes into a bufio.Writer and decodes the 50k-row labels
// result, once with five distinct labels (every TEXT cell after the first
// five an intern hit) and once with a distinct label per row (every cell a
// miss, the dictionary full after 4096).
func BenchmarkCodec(b *testing.B) {
	for _, unique := range []bool{false, true} {
		name := "labels"
		if unique {
			name = "unique"
		}
		rs := labelsResult(50000, unique)
		in := encoded(b, rs)
		b.Run(name+"/encode", func(b *testing.B) {
			bw := bufio.NewWriter(io.Discard)
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := rs.Encode(bw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for range b.N {
				if _, err := Decode(bytes.NewReader(in)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCodecLongText: texts longer than the writer's and the reader's 4096-byte
// buffers, one past the 64 KiB read-ahead limit, round trip between short
// cells.
func TestCodecLongText(t *testing.T) {
	rs := New(MustSchema(Column{Name: "t", Type: TypeText}, Column{Name: "l", Type: TypeLong}))
	for _, n := range []int{5000, 70000, 3} {
		mustAppend(rs, strings.Repeat("w", n), int64(n))
	}
	got := roundTrip(t, rs)
	sameRowsets(t, "long texts", got, rs)
}

// TestEncodeFlushesOnlyItsOwnWriter: into a plain io.Writer (a buffer, a
// hash, a file) Encode writes everything before it returns, small result or
// large; into the caller's *bufio.Writer it leaves the bytes buffered for the
// caller's one flush, and the flushed bytes are the same.
func TestEncodeFlushesOnlyItsOwnWriter(t *testing.T) {
	small := New(MustSchema(Column{Name: "x", Type: TypeLong}))
	if err := small.AppendVals(int64(7)); err != nil {
		t.Fatal(err)
	}
	large := New(MustSchema(Column{Name: "id", Type: TypeLong}, Column{Name: "s", Type: TypeText}))
	for i := 0; i < 20000; i++ {
		if err := large.AppendVals(int64(i), fmt.Sprintf("text %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range []*Rowset{small, large} {
		var plain bytes.Buffer
		if err := rs.Encode(&plain); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bufio.NewReader(bytes.NewReader(plain.Bytes())))
		if err != nil || back.Len() != rs.Len() {
			t.Fatalf("plain writer: decoded %v rows, err %v; want %d", back, err, rs.Len())
		}
		var conn bytes.Buffer
		bw := bufio.NewWriter(&conn)
		if err := rs.Encode(bw); err != nil {
			t.Fatal(err)
		}
		if rs == small && conn.Len() != 0 {
			t.Errorf("Encode flushed the caller's writer: %d bytes written", conn.Len())
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conn.Bytes(), plain.Bytes()) {
			t.Errorf("%d rows: bytes through the caller's writer differ from a plain writer's", rs.Len())
		}
	}
}
