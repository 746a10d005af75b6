package dmx

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lex"
)

// TestParseErrorPositions pins the line:col coordinates parser errors carry,
// so diagnostics stay anchored to the offending token (not the statement
// start) for malformed CREATE MINING MODEL and PREDICTION JOIN input.
func TestParseErrorPositions(t *testing.T) {
	isModel := func(n string) bool { return n == "M" }
	tests := []struct {
		name      string
		src       string
		line, col int
		want      string // substring of the message
	}{
		{
			name: "create missing close paren",
			src:  "CREATE MINING MODEL M (\n\tAge LONG KEY\n USING Decision_Trees",
			line: 3, col: 2,
			want: `expected ")"`,
		},
		{
			name: "create unknown data type",
			src:  "CREATE MINING MODEL M (Age WIBBLE KEY) USING Decision_Trees",
			line: 1, col: 28,
			want: `unknown data type "WIBBLE"`,
		},
		{
			name: "create missing USING clause",
			src:  "CREATE MINING MODEL M (Age LONG KEY)",
			line: 1, col: 37,
			want: "expected USING",
		},
		{
			name: "create missing model name",
			src:  "CREATE MINING MODEL (Age LONG KEY) USING X",
			line: 1, col: 21,
			want: "expected identifier",
		},
		{
			name: "prediction join missing source",
			src:  "SELECT Predict(Age)\nFROM M PREDICTION JOIN",
			line: 2, col: 23,
			want: "expected SHAPE or SELECT source",
		},
		{
			name: "prediction join missing alias name",
			src:  "SELECT Predict(Age) FROM M PREDICTION JOIN (SELECT * FROM t) AS",
			line: 1, col: 64,
			want: "expected identifier",
		},
		{
			name: "prediction join missing ON expression",
			src:  "SELECT Predict(Age) FROM M PREDICTION JOIN (SELECT * FROM t) AS t ON",
			line: 1, col: 69,
			want: "expected expression",
		},
		{
			name: "lexical error after EXECUTE arguments",
			src:  "EXECUTE A!00",
			line: 1, col: 10,
		},
		{
			name: "lexical error after EXPLAIN",
			src:  "EXPLAIN ANALYZE !",
			line: 1, col: 17,
		},
		{
			name: "unknown model accessor",
			src:  "SELECT * FROM [M].NOPE",
			line: 1, col: 19,
			want: "unknown model accessor",
		},
		{
			name: "insert trailing comma in bindings",
			src:  "INSERT INTO M (Age,) SELECT Age FROM t",
			line: 1, col: 20,
			want: "expected identifier",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src, isModel)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error at %d:%d", tt.src, tt.line, tt.col)
			}
			var le *lex.Error
			if !errors.As(err, &le) {
				t.Fatalf("Parse(%q) error is %T (%v), want *lex.Error", tt.src, err, err)
			}
			if le.Line != tt.line || le.Col != tt.col {
				t.Errorf("Parse(%q) error at %d:%d, want %d:%d (err: %v)",
					tt.src, le.Line, le.Col, tt.line, tt.col, err)
			}
			if got := le.Msg; tt.want != "" && !strings.Contains(got, tt.want) {
				t.Errorf("Parse(%q) message %q, want substring %q", tt.src, got, tt.want)
			}
		})
	}
}
