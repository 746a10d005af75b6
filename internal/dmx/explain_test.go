package dmx

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseExplain(t *testing.T) {
	isModel := isModelNamed("M")

	st, err := Parse("EXPLAIN SELECT Predict(Age) FROM M NATURAL PREDICTION JOIN (SELECT Age FROM T) AS t", isModel)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*Explain)
	if !ok {
		t.Fatalf("Parse = %T, want *Explain", st)
	}
	if ex.Analyze {
		t.Error("bare EXPLAIN parsed as ANALYZE")
	}
	if _, ok := ex.Stmt.(*PredictionSelect); !ok {
		t.Fatalf("inner statement = %T, want *PredictionSelect", ex.Stmt)
	}
	if !strings.HasPrefix(ex.Command, "SELECT Predict(Age)") {
		t.Errorf("Command = %q, want the inner text", ex.Command)
	}

	st, err = Parse("EXPLAIN ANALYZE INSERT INTO M (Age) SELECT Age FROM T", isModel)
	if err != nil {
		t.Fatal(err)
	}
	ex = st.(*Explain)
	if !ex.Analyze {
		t.Error("ANALYZE flag lost")
	}
	if _, ok := ex.Stmt.(*InsertInto); !ok {
		t.Fatalf("inner statement = %T, want *InsertInto", ex.Stmt)
	}

	// SQL and SHAPE inner commands are parsed too, into their own kinds, and
	// carry their text like any other.
	for src, want := range map[string]Statement{
		"EXPLAIN SELECT A FROM NotAModel": &SQL{},
		"EXPLAIN ANALYZE SHAPE {SELECT A FROM T} APPEND ({SELECT B FROM U} RELATE A TO B) AS N": &Shape{},
	} {
		st, err = Parse(src, isModel)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		ex = st.(*Explain)
		if fmt.Sprintf("%T", ex.Stmt) != fmt.Sprintf("%T", want) {
			t.Errorf("Parse(%q).Stmt = %T, want %T", src, ex.Stmt, want)
		}
		if ex.Command == "" || strings.HasPrefix(ex.Command, "EXPLAIN") {
			t.Errorf("Parse(%q).Command = %q", src, ex.Command)
		}
	}
}

func TestParseExplainErrors(t *testing.T) {
	isModel := isModelNamed("M")
	for _, src := range []string{
		"EXPLAIN",
		"EXPLAIN ANALYZE",
		"EXPLAIN EXPLAIN SELECT A FROM T",
		"EXPLAIN ANALYZE EXPLAIN ANALYZE SELECT A FROM T",
		"EXPLAIN INSERT INTO M (Age", // inner parse error propagates
	} {
		if _, err := Parse(src, isModel); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}
