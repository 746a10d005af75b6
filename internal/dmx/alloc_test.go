package dmx

import (
	"testing"

	"repro/internal/sqlengine"
)

// TestParseSQLAllocs: a SQL statement costs dmx.Parse one parse — the
// SELECT's head is not read twice, nor its text scanned again — so it
// allocates barely more than the SQL parser alone does.
func TestParseSQLAllocs(t *testing.T) {
	const src = "SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = 12345"
	isModel := isModelNamed("m")
	sql := testing.AllocsPerRun(100, func() {
		if _, err := sqlengine.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	dmx := testing.AllocsPerRun(100, func() {
		if _, err := Parse(src, isModel); err != nil {
			t.Fatal(err)
		}
	})
	if dmx > sql+4 {
		t.Errorf("dmx.Parse allocates %.0f times, sqlengine.Parse %.0f: want at most 4 more", dmx, sql)
	}
}
