package workload

import (
	"context"
	"testing"

	"repro/internal/shape"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

func TestPopulateDeterministic(t *testing.T) {
	db1 := storage.NewDatabase()
	tr1, err := Populate(db1, Config{Customers: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db2 := storage.NewDatabase()
	tr2, err := Populate(db2, Config{Customers: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range tr1.ArchetypeOf {
		if tr2.ArchetypeOf[id] != a {
			t.Fatalf("same seed must give same archetypes (id %d)", id)
		}
	}
	t1, _ := db1.Table("Sales")
	t2, _ := db2.Table("Sales")
	if t1.Len() != t2.Len() {
		t.Errorf("sales rows differ: %d vs %d", t1.Len(), t2.Len())
	}
}

func TestPopulateStructure(t *testing.T) {
	db := storage.NewDatabase()
	truth, err := Populate(db, Config{Customers: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	customers, _ := db.Table("Customers")
	if customers.Len() != 500 {
		t.Fatalf("customers = %d", customers.Len())
	}
	// Every archetype appears with reasonable frequency.
	counts := map[Archetype]int{}
	for _, a := range truth.ArchetypeOf {
		counts[a]++
	}
	for a := Family; a <= Professional; a++ {
		if counts[a] < 100 {
			t.Errorf("archetype %v count = %d", a, counts[a])
		}
	}
	// The planted rule holds: most beer buyers bought chips.
	beer, both := 0, 0
	for id := range truth.BeerBuyers {
		beer++
		if truth.ChipsBuyers[id] {
			both++
		}
	}
	if beer < 50 {
		t.Fatalf("beer buyers = %d", beer)
	}
	if conf := float64(both) / float64(beer); conf < 0.8 {
		t.Errorf("planted rule confidence = %v", conf)
	}
	// Ages respect archetype ranges on average.
	var studentSum, profSum float64
	var studentN, profN int
	for id, a := range truth.ArchetypeOf {
		switch a {
		case Student:
			studentSum += truth.AgeOf[id]
			studentN++
		case Professional:
			profSum += truth.AgeOf[id]
			profN++
		}
	}
	if studentSum/float64(studentN) > 30 || profSum/float64(profN) < 40 {
		t.Errorf("age means: students %v, professionals %v",
			studentSum/float64(studentN), profSum/float64(profN))
	}
}

func TestPaperShapeRuns(t *testing.T) {
	db := storage.NewDatabase()
	if _, err := Populate(db, Config{Customers: 50, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	rs, err := shape.ExecuteStringContext(context.Background(), sqlengine.NewEngine(db), PaperShape)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 50 {
		t.Fatalf("caseset rows = %d", rs.Len())
	}
	if _, ok := rs.Schema().Lookup("Product Purchases"); !ok {
		t.Error("nested purchases column missing")
	}
	if _, ok := rs.Schema().Lookup("Car Ownership"); !ok {
		t.Error("nested cars column missing")
	}
}

func TestNoiseProducts(t *testing.T) {
	db := storage.NewDatabase()
	if _, err := Populate(db, Config{Customers: 200, Seed: 5, ExtraNoiseProducts: 20}); err != nil {
		t.Fatal(err)
	}
	e := sqlengine.NewEngine(db)
	rs, err := e.Exec("SELECT COUNT(DISTINCT [Product Name]) FROM Sales WHERE [Product Type] = 'Gadget'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Row(0)[0].(int64) < 10 {
		t.Errorf("noise products observed = %v", rs.Row(0)[0])
	}
}

func TestPopulateErrors(t *testing.T) {
	db := storage.NewDatabase()
	if _, err := Populate(db, Config{Customers: 0}); err == nil {
		t.Error("zero customers must fail")
	}
	if _, err := Populate(db, Config{Customers: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Populate(db, Config{Customers: 10, Seed: 1}); err == nil {
		t.Error("double populate must fail (tables exist)")
	}
}

func TestVisitsClickstream(t *testing.T) {
	db := storage.NewDatabase()
	truth, err := Populate(db, Config{Customers: 200, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	visits, err := db.Table("Visits")
	if err != nil {
		t.Fatal(err)
	}
	if visits.Len() < 400 { // every customer has at least home + one step
		t.Fatalf("visit rows = %d", visits.Len())
	}
	// The planted argmax transitions are the declared truth.
	if truth.NextPage["home"] != "search" || truth.NextPage["product"] != "checkout" {
		t.Errorf("NextPage = %v", truth.NextPage)
	}
	// Count empirical home→search transitions: every home is followed by
	// search (deterministic in the generator).
	e := sqlengine.NewEngine(db)
	rs, err := e.Exec(`SELECT a.CustID FROM Visits a JOIN Visits b
		ON a.CustID = b.CustID
		WHERE a.Page = 'home' AND b.Page = 'search' AND b.Step = a.Step + 1`)
	if err != nil {
		t.Fatal(err)
	}
	homes, err := e.Exec("SELECT COUNT(*) FROM Visits WHERE Page = 'home'")
	if err != nil {
		t.Fatal(err)
	}
	// Every non-terminal home transitions to search; a session can end on
	// home only at the step cap, so at most one home per customer lacks a
	// successor.
	h := homes.Row(0)[0].(int64)
	got := int64(rs.Len())
	if got > h || got < h-200 {
		t.Errorf("home→search transitions %d vs home visits %d", got, h)
	}
	if got == 0 {
		t.Error("no home→search transitions observed")
	}
}
