package dmserver

import (
	"bufio"
	"io"
	"testing"
	"time"

	"repro/internal/rowset"
)

// TestFrameAllocs guards the small frames: a one-row response and a
// three-argument request are appended into the writer's own buffer, so
// writing either allocates nothing.
func TestFrameAllocs(t *testing.T) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "label", Type: rowset.TypeText},
		rowset.Column{Name: "p", Type: rowset.TypeDouble},
	))
	if err := rs.AppendVals(int64(100042), "Medium", 0.75); err != nil {
		t.Fatal(err)
	}
	st := ExecStats{Elapsed: 1500 * time.Microsecond, Rows: 1, Seq: 977}
	args := []rowset.Value{int64(1 << 40), "O'Brien", 2.5}
	bw := bufio.NewWriter(io.Discard)
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"writeResponse of a one-row result", func() error { return writeResponse(bw, rs, nil, st) }},
		{"WriteRequest with three args", func() error { return WriteRequest(bw, VerbExecParams, "SELECT ?, ?, ?", args) }},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if err := c.fn(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: %.1f allocations, want 0", c.name, got)
		}
	}
}
