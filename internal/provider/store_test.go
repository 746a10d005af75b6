package provider

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/obs"
)

// recordColumns are the statement columns DM_QUERY_LOG and
// DM_FLIGHT_RECORDER share; on the flight recorder, ELAPSED_US of the root
// span (DEPTH 0) is the statement's.
const recordColumns = "SEQ, START_TIME, STATEMENT, KIND, ORIGIN, ERROR_CLASS, ELAPSED_US"

// rowsBySeq runs query on p and renders each row under its first column.
func rowsBySeq(t *testing.T, p *Provider, query string) map[int64]string {
	out := map[int64]string{}
	for _, r := range mustExec(t, p, query).Rows() {
		out[r[0].(int64)] = fmt.Sprint(r)
	}
	return out
}

// TestStatementRecordedOnce: a statement the flight recorder retains carries
// the same record in DM_QUERY_LOG and DM_FLIGHT_RECORDER.
func TestStatementRecordedOnce(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE T (ID LONG)")
	mustExec(t, p, "INSERT INTO T VALUES (1), (2)")
	sess := p.NewSession()
	defer sess.Close()
	for _, q := range []string{"SELECT ID FROM T", "THIS IS NOT SQL", "SELECT * FROM Missing"} {
		sess.Execute(context.Background(), q, WithOrigin("10.0.0.1:5"))
	}
	retained := rowsBySeq(t, p, "SELECT "+recordColumns+" FROM $SYSTEM.DM_FLIGHT_RECORDER WHERE DEPTH = 0")
	logged := rowsBySeq(t, p, "SELECT "+recordColumns+" FROM $SYSTEM.DM_QUERY_LOG")
	if len(retained) < 3 {
		t.Fatalf("flight recorder retains %d statements, want the 2 errors and at least one sample", len(retained))
	}
	for seq, row := range retained {
		if logged[seq] != row {
			t.Errorf("seq %d: DM_FLIGHT_RECORDER %s, DM_QUERY_LOG %s", seq, row, logged[seq])
		}
	}
}

// TestErrorOutlivesRecentRing: an error statement stays in
// DM_FLIGHT_RECORDER after DefaultQueryLogCap later statements have pushed
// it out of DM_QUERY_LOG.
func TestErrorOutlivesRecentRing(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE T (ID LONG)")
	var seq int64
	if _, err := p.NewSession().Execute(context.Background(), "THIS IS NOT SQL", WithSeqOut(&seq)); err == nil {
		t.Fatal("garbage statement succeeded")
	}
	for i := 0; i < obs.DefaultQueryLogCap; i++ {
		mustExec(t, p, "SELECT ID FROM T")
	}
	if _, ok := rowsBySeq(t, p, "SELECT SEQ FROM $SYSTEM.DM_QUERY_LOG")[seq]; ok {
		t.Fatalf("seq %d still in DM_QUERY_LOG after %d statements", seq, obs.DefaultQueryLogCap)
	}
	row, ok := rowsBySeq(t, p, "SELECT SEQ, KEEP_REASON FROM $SYSTEM.DM_FLIGHT_RECORDER")[seq]
	if !ok || !strings.Contains(row, "error") {
		t.Fatalf("DM_FLIGHT_RECORDER row for seq %d = %q, want it kept as error", seq, row)
	}
}

// TestRetainedTreeOutlivesItsTrace: the span tree of a statement the flight
// recorder keeps — here one that fails mid-execution, with its select, scan
// and project spans recorded — is the store's own copy: its
// DM_FLIGHT_RECORDER rows are byte-identical before and after the same
// session runs 1 000 more statements, whose traces reuse the failed
// statement's span slab.
func TestRetainedTreeOutlivesItsTrace(t *testing.T) {
	ctx := context.Background()
	p := MustNew()
	mustExec(t, p, "CREATE TABLE T (ID LONG, S TEXT)")
	mustExec(t, p, "INSERT INTO T VALUES (1, 'a'), (2, 'b')")
	sess := p.NewSession()
	defer sess.Close()
	var seq int64
	if _, err := sess.Execute(ctx, "SELECT ID + S FROM T", WithSeqOut(&seq)); err == nil {
		t.Fatal("TEXT arithmetic succeeded")
	}
	rows := func() []byte {
		var buf bytes.Buffer
		rs := mustExec(t, p, fmt.Sprintf("SELECT * FROM $SYSTEM.DM_FLIGHT_RECORDER WHERE SEQ = %d", seq))
		if err := rs.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := rows()
	if n := mustExec(t, p, fmt.Sprintf("SELECT * FROM $SYSTEM.DM_FLIGHT_RECORDER WHERE SEQ = %d", seq)).Len(); n != 4 {
		t.Fatalf("the failed statement has %d spans retained, want 4 (statement, select, scan, project)", n)
	}
	for i := range 1000 {
		if _, err := sess.Execute(ctx, fmt.Sprintf("SELECT S FROM T WHERE ID = %d ORDER BY S", i%2+1)); err != nil {
			t.Fatal(err)
		}
	}
	if after := rows(); !bytes.Equal(before, after) {
		t.Fatalf("the retained rows of seq %d changed after 1000 more statements", seq)
	}
}

// TestFlightRecorderSamplesUnderErrorFlood: with more than
// DefaultFlightRecorderCap failed statements interleaved with normal ones,
// DM_FLIGHT_RECORDER still holds 1..8 sample rows, and
// flight_recorder_kept_total{reason="sample"} counts exactly the statements
// written into the reservoir.
func TestFlightRecorderSamplesUnderErrorFlood(t *testing.T) {
	p := MustNew()
	mustExec(t, p, "CREATE TABLE T (ID LONG)")
	sess := p.NewSession()
	defer sess.Close()
	ctx := context.Background()
	writes := len(p.Obs().QueryLog().Retained()) // the CREATE TABLE's sample
	for i := 0; i < 2*obs.DefaultFlightRecorderCap; i++ {
		sess.Execute(ctx, "THIS IS NOT SQL")
		var seq int64
		if _, err := sess.Execute(ctx, "SELECT ID FROM T", WithSeqOut(&seq)); err != nil {
			t.Fatal(err)
		}
		if rec, ok := p.Obs().QueryLog().FindRetained(seq); ok && rec.Reason == obs.KeepSample {
			writes++
		}
	}
	kept := rowsByName(t, p, `SELECT METRIC_NAME, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS`)
	samples := rowsBySeq(t, p, `SELECT SEQ FROM $SYSTEM.DM_FLIGHT_RECORDER WHERE KEEP_REASON = 'sample'`)
	if len(samples) < 1 || len(samples) > 8 {
		t.Fatalf("DM_FLIGHT_RECORDER holds %d samples, want 1..8", len(samples))
	}
	name := fmt.Sprintf("%s{%s=%q}", obs.MetricFlightKept, obs.LabelReason, obs.KeepSample)
	if got := kept[name]; got != int64(writes) {
		t.Fatalf("%s = %d, want the %d reservoir writes", name, got, writes)
	}
}

// rowsByName runs a two-column (name, value) query on p.
func rowsByName(t *testing.T, p *Provider, query string) map[string]int64 {
	out := map[string]int64{}
	for _, r := range mustExec(t, p, query).Rows() {
		out[r[0].(string)], _ = r[1].(int64)
	}
	return out
}

// TestStatementTextStaysUTF8: a statement cut inside a multi-byte rune is
// stored up to that rune, in both rowsets.
func TestStatementTextStaysUTF8(t *testing.T) {
	p := MustNew()
	text := "SELECT '" + strings.Repeat("x", 503) + "é' AS s" // byte 511 starts é
	if _, err := p.Execute(text + " FROM Missing"); err == nil {
		t.Fatal("select from a missing table succeeded")
	}
	for _, q := range []string{
		"SELECT STATEMENT, LEN(STATEMENT) FROM $SYSTEM.DM_QUERY_LOG",
		"SELECT STATEMENT, LEN(STATEMENT) FROM $SYSTEM.DM_FLIGHT_RECORDER",
	} {
		r := mustExec(t, p, q).Rows()[0]
		if got := r[0].(string); got != text[:511] || !utf8.ValidString(got) || r[1] != int64(511) {
			t.Errorf("%s: stored %d bytes (LEN %v) ending %q, want the 511 bytes before the é", q, len(got), r[1], got[len(got)-3:])
		}
	}
}
