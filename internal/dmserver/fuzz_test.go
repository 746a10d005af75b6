package dmserver

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/rowset"
)

// seedArgs holds every argument tag.
var seedArgs = []rowset.Value{
	nil, true, false, int64(-42), int64(1 << 40), 2.5, math.Inf(-1), "it's", "",
	time.Date(2001, 4, 2, 15, 4, 5, 123456789, time.UTC),
}

// FuzzReadRequest: the server's preamble + request reader never panics, and
// every request it accepts re-encodes, preamble included, to the bytes it
// was read from.
func FuzzReadRequest(f *testing.F) {
	for _, req := range []request{
		{verb: VerbExec, text: "SELECT 1 + 1"},
		{verb: VerbExecutePrepared, text: "q", args: seedArgs},
		{verb: VerbExecParams, text: "INSERT INTO T VALUES (?, @b)", args: seedArgs[:3]},
		{verb: VerbExecParams, text: "SELECT 1"},
	} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		bw.WriteString(Preamble)
		if err := WriteRequest(bw, req.verb, req.text, req.args); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		br := bufio.NewReader(r)
		req, err := readRequest(br, true)
		if err != nil {
			return
		}
		read := in[:len(in)-r.Len()-br.Buffered()]
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		bw.WriteString(Preamble)
		if err := WriteRequest(bw, req.verb, req.text, req.args); err != nil {
			t.Fatalf("WriteRequest of a decoded request: %v", err)
		}
		if !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("re-encoding % x differs from input % x", out.Bytes(), read)
		}
	})
}

// FuzzReadResponse: the client's response reader never panics, and every
// response it accepts — a rowset or a statement error — re-encodes to the
// bytes it was read from.
func FuzzReadResponse(f *testing.F) {
	all := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "n", Type: rowset.TypeLong},
		rowset.Column{Name: "t", Type: rowset.TypeTable, Nested: rowset.MustSchema(rowset.Column{Name: "p", Type: rowset.TypeText})},
	))
	inner := rowset.New(all.Schema().Columns[1].Nested)
	if err := inner.AppendVals("TV"); err != nil {
		f.Fatal(err)
	}
	if err := all.AppendVals(int64(1), inner); err != nil {
		f.Fatal(err)
	}
	for _, resp := range []struct {
		rs      *rowset.Rowset
		execErr error
		stats   ExecStats
	}{
		{all, nil, ExecStats{Elapsed: 1500 * time.Microsecond, Rows: 1, Seq: 977}},
		{rowset.New(rowset.MustSchema()), nil, ExecStats{}},
		{nil, errors.New("boom"), ExecStats{Elapsed: time.Second, Seq: 1 << 40}},
	} {
		var buf bytes.Buffer
		if err := writeResponse(bufio.NewWriter(&buf), resp.rs, resp.execErr, resp.stats); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		br := bufio.NewReader(r)
		rs, stats, err := ReadResponse(br)
		var remote *RemoteError
		if err != nil && !errors.As(err, &remote) {
			return
		}
		read := in[:len(in)-r.Len()-br.Buffered()]
		var out bytes.Buffer
		if err := writeResponse(bufio.NewWriter(&out), rs, err, stats); err != nil {
			t.Fatalf("writeResponse of a decoded response: %v", err)
		}
		if !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("re-encoding % x differs from input % x", out.Bytes(), read)
		}
	})
}
