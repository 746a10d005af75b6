package shape

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
	"repro/internal/workload"
)

// paperEngine recreates the exact data behind Table 1 of the paper:
// customer 1 (male, black hair, age 35 @100%) bought TV, VCR, Ham(2),
// Beer(6), owns a Truck (100%) and maybe a Van (50%).
func paperEngine(t *testing.T) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(storage.NewDatabase())
	stmts := []string{
		"CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, [Hair Color] TEXT, Age DOUBLE, [Age Prob] DOUBLE)",
		"CREATE TABLE Sales (CustID LONG, [Product Name] TEXT, Quantity DOUBLE, [Product Type] TEXT)",
		"CREATE TABLE Cars (CustID LONG, Car TEXT, [Car Prob] DOUBLE)",
		"INSERT INTO Customers VALUES (1, 'Male', 'Black', 35, 1.0), (2, 'Female', 'Red', 28, 0.9)",
		`INSERT INTO Sales VALUES
			(1, 'TV', 1, 'Electronic'), (1, 'VCR', 1, 'Electronic'),
			(1, 'Ham', 2, 'Food'), (1, 'Beer', 6, 'Beverage')`,
		"INSERT INTO Cars VALUES (1, 'Truck', 1.0), (1, 'Van', 0.5)",
	}
	for _, s := range stmts {
		if _, err := e.Exec(s); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	return e
}

const paperShape = `SHAPE
	{SELECT [Customer ID], Gender, [Hair Color], Age, [Age Prob] FROM Customers ORDER BY [Customer ID]}
	APPEND (
		{SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales ORDER BY [CustID]}
		RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
	APPEND (
		{SELECT [CustID], [Car], [Car Prob] FROM Cars ORDER BY [CustID]}
		RELATE [Customer ID] TO [CustID]) AS [Car Ownership]`

func TestPaperTable1(t *testing.T) {
	e := paperEngine(t)
	rs, err := ExecuteStringContext(context.Background(), e, paperShape)
	if err != nil {
		t.Fatal(err)
	}
	// One case per customer — not the 12 replicated rows of the flat join.
	if rs.Len() != 2 {
		t.Fatalf("caseset rows = %d, want 2", rs.Len())
	}
	c1 := rs.Row(0)
	purchases := c1[5].(*rowset.Rowset)
	cars := c1[6].(*rowset.Rowset)
	if purchases.Len() != 4 {
		t.Errorf("customer 1 purchases = %d, want 4", purchases.Len())
	}
	if cars.Len() != 2 {
		t.Errorf("customer 1 cars = %d, want 2", cars.Len())
	}
	if v, _ := purchases.Value(3, "Product Name"); v != "Beer" {
		t.Errorf("purchase 3 = %v", v)
	}
	if v, _ := cars.Value(1, "Car Prob"); v != 0.5 {
		t.Errorf("van probability = %v", v)
	}
	// Customer 2 has purchases but no cars: empty nested rowset, not NULL.
	c2cars := rs.Row(1)[6].(*rowset.Rowset)
	if c2cars.Len() != 0 {
		t.Errorf("customer 2 cars = %d, want 0", c2cars.Len())
	}
}

func TestFlattenedVsShapedRowCount(t *testing.T) {
	// The paper's Section 3.1 argument: the flat join replicates data
	// (customer 1 alone: 4 purchases x 2 cars = 8 rows) while the shaped
	// caseset has exactly one row per case.
	e := paperEngine(t)
	flat, err := e.Exec(`SELECT c.[Customer ID] FROM Customers c
		JOIN Sales s ON c.[Customer ID] = s.CustID
		JOIN Cars k ON k.CustID = c.[Customer ID]`)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := ExecuteStringContext(context.Background(), e, paperShape)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Len() != 8 {
		t.Errorf("flat join = %d rows", flat.Len())
	}
	if shaped.Len() != 2 {
		t.Errorf("shaped = %d cases", shaped.Len())
	}
}

// TestTable1TwelveJoinRows is Table 1 and the sentence around it (E1): the
// three-way join "will return a table of 12 rows", the caseset is one row
// per case, and customer 1 comes back exactly as the table prints it. The
// paper describes only customer 1; its 12 rows imply a second customer with
// 2 purchases and 2 cars, the one free assumption.
func TestTable1TwelveJoinRows(t *testing.T) {
	e := paperEngine(t)
	for _, s := range []string{
		"INSERT INTO Sales VALUES (2, 'TV', 1, 'Electronic'), (2, 'Wine', 2, 'Beverage')",
		"INSERT INTO Cars VALUES (2, 'Sedan', 1.0), (2, 'Bike', 0.5)",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := e.Exec(`SELECT c.[Customer ID], c.Gender, c.[Hair Color], c.Age,
			s.[Product Name], s.Quantity, s.[Product Type], k.Car, k.[Car Prob]
		FROM Customers c
		JOIN Sales s ON c.[Customer ID] = s.CustID
		JOIN Cars k ON k.CustID = c.[Customer ID]`)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := ExecuteStringContext(context.Background(), e, paperShape)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Len() != 12 || flat.FlatWidth() != 108 {
		t.Errorf("flattened join = %d rows / %d cells, want 12 / 108", flat.Len(), flat.FlatWidth())
	}
	if shaped.Len() != 2 || shaped.FlatWidth() != 46 {
		t.Errorf("caseset = %d cases / %d cells, want 2 / 46", shaped.Len(), shaped.FlatWidth())
	}
	c1 := shaped.Row(0)
	if got, want := c1[:5], (rowset.Row{int64(1), "Male", "Black", 35.0, 1.0}); !reflect.DeepEqual(got, want) {
		t.Errorf("customer 1 = %v, want %v", got, want)
	}
	purchases := []rowset.Row{
		{int64(1), "TV", 1.0, "Electronic"}, {int64(1), "VCR", 1.0, "Electronic"},
		{int64(1), "Ham", 2.0, "Food"}, {int64(1), "Beer", 6.0, "Beverage"},
	}
	if got := c1[5].(*rowset.Rowset).Rows(); !reflect.DeepEqual(got, purchases) {
		t.Errorf("Product Purchases = %v, want %v", got, purchases)
	}
	cars := []rowset.Row{{int64(1), "Truck", 1.0}, {int64(1), "Van", 0.5}}
	if got := c1[6].(*rowset.Rowset).Rows(); !reflect.DeepEqual(got, cars) {
		t.Errorf("Car Ownership = %v, want %v", got, cars)
	}
}

// TestJoinReplicationGrowsWithFanout is the case-assembly claim (E7): over
// the generated warehouse the flattened join materializes at least three
// rows per case and more as baskets widen, while SHAPE stays one row per
// case.
func TestJoinReplicationGrowsWithFanout(t *testing.T) {
	const customers = 300
	prev := 0
	for _, noise := range []int{0, 25, 50} {
		db := storage.NewDatabase()
		if _, err := workload.Populate(db, workload.Config{Customers: customers, Seed: 1, ExtraNoiseProducts: noise}); err != nil {
			t.Fatal(err)
		}
		e := sqlengine.NewEngine(db)
		shaped, err := ExecuteStringContext(context.Background(), e, workload.PaperShape)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := e.Exec(`SELECT c.[Customer ID], c.Gender, c.Age, s.[Product Name], s.Quantity, k.Car
			FROM Customers c
			JOIN Sales s ON c.[Customer ID] = s.CustID
			LEFT JOIN Cars k ON k.CustID = c.[Customer ID]`)
		if err != nil {
			t.Fatal(err)
		}
		if shaped.Len() != customers {
			t.Errorf("noise %d: caseset = %d rows, want %d", noise, shaped.Len(), customers)
		}
		if flat.Len() < 3*customers || flat.Len() <= prev {
			t.Errorf("noise %d: flattened join = %d rows, want ≥ %d and more than %d", noise, flat.Len(), 3*customers, prev)
		}
		prev = flat.Len()
	}
}

func TestShapeNoAppend(t *testing.T) {
	e := paperEngine(t)
	rs, err := ExecuteStringContext(context.Background(), e, "SHAPE {SELECT Gender FROM Customers}")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.Schema().Len() != 1 {
		t.Errorf("bare shape = %dx%d", rs.Len(), rs.Schema().Len())
	}
}

func TestNestedShape(t *testing.T) {
	// Two-level nesting: customers > product types > products.
	e := paperEngine(t)
	src := `SHAPE
		{SELECT [Customer ID] FROM Customers}
		APPEND ( SHAPE
			{SELECT DISTINCT [CustID], [Product Type] FROM Sales}
			APPEND (
				{SELECT [Product Type] AS PT, [Product Name] FROM Sales}
				RELATE [Product Type] TO [PT]) AS [Products]
			RELATE [Customer ID] TO [CustID]) AS [Types]`
	rs, err := ExecuteStringContext(context.Background(), e, src)
	if err != nil {
		t.Fatal(err)
	}
	types := rs.Row(0)[1].(*rowset.Rowset)
	if types.Len() != 3 { // Electronic, Food, Beverage for customer 1
		t.Fatalf("types = %d: %v", types.Len(), types.Rows())
	}
	// Find the Electronic group; it must nest TV and VCR.
	found := false
	for _, r := range types.Rows() {
		if r[1] == "Electronic" {
			prods := r[2].(*rowset.Rowset)
			if prods.Len() != 2 {
				t.Errorf("electronic products = %d", prods.Len())
			}
			found = true
		}
	}
	if !found {
		t.Error("Electronic type group missing")
	}
}

func TestShapeSchemaShape(t *testing.T) {
	e := paperEngine(t)
	rs, err := ExecuteStringContext(context.Background(), e, paperShape)
	if err != nil {
		t.Fatal(err)
	}
	i, ok := rs.Schema().Lookup("Product Purchases")
	if !ok {
		t.Fatal("nested column missing")
	}
	col := rs.Schema().Column(i)
	if col.Type != rowset.TypeTable || col.Nested == nil {
		t.Fatalf("nested column = %+v", col)
	}
	if _, ok := col.Nested.Lookup("Quantity"); !ok {
		t.Errorf("nested schema = %v", col.Nested.Names())
	}
}

func TestShapeParseErrors(t *testing.T) {
	bad := []string{
		"SHAPE SELECT 1",
		"SHAPE {SELECT 1} APPEND {SELECT 2} AS x",
		"SHAPE {SELECT 1} APPEND ({SELECT 2} RELATE a) AS x",
		"SHAPE {SELECT 1} APPEND ({SELECT 2} RELATE a TO b)",
		"SHAPE {SELECT 1} trailing",
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestShapeBadRelateColumns(t *testing.T) {
	e := paperEngine(t)
	_, err := ExecuteStringContext(context.Background(), e, `SHAPE {SELECT Gender FROM Customers}
		APPEND ({SELECT CustID FROM Sales} RELATE [Customer ID] TO [CustID]) AS p`)
	if err == nil {
		t.Error("missing parent relate column must error")
	}
	_, err = ExecuteStringContext(context.Background(), e, `SHAPE {SELECT [Customer ID] FROM Customers}
		APPEND ({SELECT [Product Name] FROM Sales} RELATE [Customer ID] TO [CustID]) AS p`)
	if err == nil {
		t.Error("missing child relate column must error")
	}
}
