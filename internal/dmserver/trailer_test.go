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
