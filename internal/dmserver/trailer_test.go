package dmserver

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/rowset"
)

// The stats trail every response, success or failure, as three uvarints.

// encodeResponse is what the server writes for one statement.
func encodeResponse(t *testing.T, rs *rowset.Rowset, execErr error, st ExecStats) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeResponse(bufio.NewWriter(&buf), rs, execErr, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oneRow(t *testing.T) *rowset.Rowset {
	t.Helper()
	rs := rowset.New(rowset.MustSchema(rowset.Column{Name: "x", Type: rowset.TypeLong}))
	if err := rs.AppendVals(int64(7)); err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestParseStatsTrailerSeq(t *testing.T) {
	// The stats a response is written with are the stats ReadResponse returns,
	// after a rowset and after an error message alike.
	want := ExecStats{Elapsed: 42 * time.Microsecond, Rows: 1, Seq: 977}
	_, got, err := ReadResponse(bufio.NewReader(bytes.NewReader(encodeResponse(t, oneRow(t), nil, want))))
	if err != nil || got != want {
		t.Errorf("ok response stats = %+v, %v; want %+v", got, err, want)
	}
	want.Rows = 0
	_, got, err = ReadResponse(bufio.NewReader(bytes.NewReader(encodeResponse(t, nil, errors.New("boom"), want))))
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" || got != want {
		t.Errorf("err response stats = %+v, %v; want %+v with boom", got, err, want)
	}
}

func TestParseStatsTrailerMissingElapsed(t *testing.T) {
	// A response cut off inside its stats is a broken stream, not a
	// statement error: ReadResponse must not return a *RemoteError.
	for _, execErr := range []error{nil, errors.New("boom")} {
		full := encodeResponse(t, oneRow(t), execErr, ExecStats{Elapsed: time.Millisecond, Rows: 1, Seq: 5})
		_, _, err := ReadResponse(bufio.NewReader(bytes.NewReader(full[:len(full)-3])))
		var re *RemoteError
		if err == nil || errors.As(err, &re) {
			t.Errorf("truncated stats (execErr %v) = %v, want a decode error", execErr, err)
		}
	}
}

// countingWriter counts the Write calls that reach it, as a connection
// counts send calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestResponseIsOneWrite: a small response — the rowset and the stats
// trailer — reaches the connection in one Write, and a response larger than
// the writer's buffer still arrives whole: it decodes to the rowset it
// encoded, byte for byte.
func TestResponseIsOneWrite(t *testing.T) {
	var conn countingWriter
	if err := writeResponse(bufio.NewWriter(&conn), oneRow(t), nil, ExecStats{Rows: 1, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	if conn.writes != 1 {
		t.Errorf("one-row response took %d writes, want 1", conn.writes)
	}

	big := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "label", Type: rowset.TypeText},
	))
	for i := 0; i < 50000; i++ {
		if err := big.Append([]rowset.Value{int64(i), "row"}); err != nil {
			t.Fatal(err)
		}
	}
	conn = countingWriter{}
	if err := writeResponse(bufio.NewWriter(&conn), big, nil, ExecStats{Rows: 50000, Seq: 8}); err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadResponse(bufio.NewReader(&conn))
	if err != nil || st.Seq != 8 || st.Rows != 50000 {
		t.Fatalf("ReadResponse = %v, %+v", err, st)
	}
	var want, again bytes.Buffer
	if err := big.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), again.Bytes()) {
		t.Error("the 50k-row response does not decode to the rowset it encoded")
	}
}
