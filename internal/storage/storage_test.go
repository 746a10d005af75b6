package storage

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/rowset"
)

func testSchema() *rowset.Schema {
	return rowset.MustSchema(
		rowset.Column{Name: "id", Type: rowset.TypeLong},
		rowset.Column{Name: "name", Type: rowset.TypeText},
		rowset.Column{Name: "score", Type: rowset.TypeDouble},
	)
}

func TestInsertCoercion(t *testing.T) {
	tbl := NewTable("t", testSchema())
	// "7" coerces to LONG; int 3 coerces to DOUBLE.
	if err := tbl.Insert(rowset.Row{"7", "a", 3}); err != nil {
		t.Fatal(err)
	}
	got := tbl.Scan().Row(0)
	if got[0] != int64(7) || got[2] != float64(3) {
		t.Errorf("coercion wrong: %#v", got)
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.Insert(rowset.Row{int64(1)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := tbl.Insert(rowset.Row{"abc", "a", 1.0}); err == nil {
		t.Error("uncoercible value must error")
	}
	if tbl.Len() != 0 {
		t.Error("failed insert must not add rows")
	}
}

func TestTruncate(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.Insert(rowset.Row{int64(1), "a", 1.0}); err != nil {
		t.Fatal(err)
	}
	tbl.Truncate()
	if tbl.Len() != 0 {
		t.Error("truncate must empty table")
	}
}

func TestIndexLookup(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(rowset.Row{int64(i), fmt.Sprintf("n%d", i%10), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.LookupEqualRows("name", "n3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("indexed lookup = %d rows, want 10", len(rows))
	}
	// Unindexed lookup falls back to scan with same answer.
	rows2, err := tbl.LookupEqualRows("score", 42.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 1 || rows2[0][0] != int64(42) {
		t.Errorf("scan lookup wrong: %v", rows2)
	}
	// Index stays consistent after more inserts.
	if err := tbl.Insert(rowset.Row{int64(100), "n3", 1.5}); err != nil {
		t.Fatal(err)
	}
	rows3, _ := tbl.LookupEqualRows("name", "n3")
	if len(rows3) != 11 {
		t.Errorf("index not maintained: %d", len(rows3))
	}
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("index on unknown column must error")
	}
	if _, err := tbl.LookupEqualRows("nope", 1); err == nil {
		t.Error("lookup on unknown column must error")
	}
}

func TestIndexAfterTruncate(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(rowset.Row{int64(1), "a", 1.0}); err != nil {
		t.Fatal(err)
	}
	tbl.Truncate()
	rows, err := tbl.LookupEqualRows("id", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Error("index must be reset on truncate")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	tbl := NewTable("t", testSchema())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = tbl.Insert(rowset.Row{int64(w*100 + i), "x", 0.0})
				_ = tbl.Scan()
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != 400 {
		t.Errorf("len = %d want 400", tbl.Len())
	}
}

func TestDatabaseCatalog(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable("Customers", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("customers", testSchema()); err == nil {
		t.Error("duplicate table (case-insensitive) must error")
	}
	if _, err := db.Table("CUSTOMERS"); err != nil {
		t.Error("case-insensitive lookup failed")
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("missing table must error")
	}
	if _, err := db.CreateTable("Sales", testSchema()); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "Customers" || names[1] != "Sales" {
		t.Errorf("Names = %v", names)
	}
	if err := db.DropTable("Sales"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("Sales"); err == nil {
		t.Error("dropping missing table must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase()
	tbl, err := db.CreateTable("People", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := tbl.Insert(rowset.Row{int64(i), fmt.Sprintf("p%d", i), float64(i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}

	db2 := NewDatabase()
	if err := db2.Load(dir); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Table("People")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 25 {
		t.Fatalf("loaded %d rows, want 25", got.Len())
	}
	r := got.Scan().Row(24)
	if r[0] != int64(24) || r[1] != "p24" || r[2] != 12.0 {
		t.Errorf("row = %#v", r)
	}
}

func TestLoadMissingDir(t *testing.T) {
	db := NewDatabase()
	if err := db.Load(filepath.Join(t.TempDir(), "nothere")); err != nil {
		t.Errorf("missing dir must not error: %v", err)
	}
}

// TestKeyIndexLookupAllocatesNothing: probing a key index allocates nothing,
// for every key kind a point lookup or RELATE probe uses — numbers in the key
// table's slots, strings in its map, and a DATE's key bytes in a stack buffer.
func TestKeyIndexLookupAllocatesNothing(t *testing.T) {
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	for _, v := range []rowset.Value{int64(7), float64(2.5), at, "customer-7"} {
		typ := rowset.TypeOf(v)
		x, err := BuildKeyIndex(t.Context(), []rowset.Row{{v}, {nil}, {v}}, 0, rowset.KeyKindOf(typ, typ))
		if err != nil {
			t.Fatal(err)
		}
		if got := x.Lookup(v); !slices.Equal(got, []int32{0, 2}) {
			t.Fatalf("Lookup(%v) = %v, want [0 2]", v, got)
		}
		if n := testing.AllocsPerRun(100, func() { x.Lookup(v) }); n != 0 {
			t.Errorf("Lookup(%v) allocates %v times, want 0", v, n)
		}
	}
}

// TestNameLookupsDoNotAllocate: a point statement resolves its table by a
// mixed-case name ("Customers") and reads the estimate behind its plan from
// the probed column's cached key index; neither allocates, the name still
// matches case-insensitively and reports a miss as before, and the estimate is
// rows over distinct values.
func TestNameLookupsDoNotAllocate(t *testing.T) {
	db := NewDatabase()
	tbl, err := db.CreateTable("Customers", rowset.MustSchema(
		rowset.Column{Name: "Customer ID", Type: rowset.TypeLong},
		rowset.Column{Name: "Gender", Type: rowset.TypeText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := tbl.Insert(rowset.Row{i, []string{"F", "M"}[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	for ord, kind := range []rowset.KeyKind{rowset.KeyLong, rowset.KeyText} {
		if _, _, err := tbl.KeyIndex(t.Context(), ord, kind); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := db.Table("CUSTOMERS"); err != nil || got != tbl {
		t.Fatalf("Table(CUSTOMERS) = %v, %v", got, err)
	}
	if _, err := db.Table("Orders"); err == nil || err.Error() != `storage: no table named "Orders"` {
		t.Fatalf("Table(Orders) error = %v", err)
	}
	if e := tbl.CachedKeyIndex(0, rowset.KeyLong).EqEstimate(); e != 1 {
		t.Fatalf("EqEstimate(Customer ID) = %d, want 1", e)
	}
	if e := tbl.CachedKeyIndex(1, rowset.KeyText).EqEstimate(); e != 5 {
		t.Fatalf("EqEstimate(Gender) = %d, want 5", e)
	}
	n := testing.AllocsPerRun(100, func() {
		db.Table("Customers")
		tbl.CachedKeyIndex(0, rowset.KeyLong).EqEstimate()
	})
	if n != 0 {
		t.Fatalf("name lookups allocate %.1f objects, want 0", n)
	}
}
