package sem

import (
	"strings"
	"testing"

	"repro/internal/dmx"
)

// TestCheckExplainDelegates: EXPLAIN binds as the statement it wraps, so a
// plan is never produced for a statement that would not bind; a SQL inner
// statement has nothing for the binder to check.
func TestCheckExplainDelegates(t *testing.T) {
	cat := testCatalog(t)
	isModel := func(n string) bool { _, err := cat.ModelDef(n); return err == nil }

	good, err := dmx.Parse("EXPLAIN SELECT Predict(Risk) FROM CreditRisk NATURAL PREDICTION JOIN (SELECT Age FROM People) AS t", isModel)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(good, cat); err != nil {
		t.Fatalf("Check(good EXPLAIN) = %v", err)
	}

	bad, err := dmx.Parse("EXPLAIN ANALYZE SELECT Predict(Bogus) FROM CreditRisk NATURAL PREDICTION JOIN (SELECT Age FROM People) AS t", isModel)
	if err != nil {
		t.Fatal(err)
	}
	err = Check(bad, cat)
	if err == nil {
		t.Fatal("Check accepted EXPLAIN of a statement with an unknown column")
	}
	if _, ok := err.(Diagnostics); !ok || !strings.Contains(err.Error(), "Bogus") {
		t.Fatalf("Check error = %T %v, want positioned diagnostics about Bogus", err, err)
	}

	sql, err := dmx.Parse("EXPLAIN SELECT 1", isModel)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(sql, cat); err != nil {
		t.Fatalf("Check(EXPLAIN of SQL) = %v, want nil", err)
	}
}
