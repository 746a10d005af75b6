package shape

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

// TestNullRelateKeysMatchNothing: a NULL relate key is no key, as in the
// engine's own equi-join. Whether the child is read from the table's key
// index, from its filtered scan or by running it whole, a NULL-keyed parent
// gets an empty nested table and NULL-keyed children belong to no parent.
func TestNullRelateKeysMatchNothing(t *testing.T) {
	db := storage.NewDatabase()
	e := sqlengine.NewEngine(db)
	for _, s := range []string{
		"CREATE TABLE P (K LONG, Name TEXT)",
		"INSERT INTO P VALUES (1, 'a'), (NULL, 'b'), (2, 'c')",
		"CREATE TABLE C (K LONG, V TEXT)",
		"INSERT INTO C VALUES (1, 'x'), (NULL, 'orphan1'), (NULL, 'orphan2'), (2, 'y')",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := db.Table("C")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, child string
		indexed     bool
	}{
		{"filtered", "SELECT K, V FROM C WHERE 1 = 1", false},
		{"executed", "SELECT K, V FROM C ORDER BY V", false},
		{"index", "SELECT K, V FROM C", true},
	} {
		rs, err := ExecuteStringContext(context.Background(), e, "SHAPE {SELECT K, Name FROM P} APPEND ({"+tc.child+"} RELATE K TO K) AS Kids")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.HasIndex("K") != tc.indexed {
			t.Fatalf("%s path: index on C.K = %v, want %v", tc.path, !tc.indexed, tc.indexed)
		}
		want := map[string]string{"a": "{(1, x)}", "b": "{}", "c": "{(2, y)}"}
		for _, r := range rs.Rows() {
			if got := rowset.FormatNested(r[2].(*rowset.Rowset)); got != want[r[1].(string)] {
				t.Errorf("%s path: parent %v has children %s, want %s", tc.path, r[1], got, want[r[1].(string)])
			}
		}
	}
}

// TestCasesetAllocations: assembling a caseset takes a fixed number of
// allocations per APPEND whatever the number of parents — the parent rows are
// the engine's and the children are positions into the rows the engine read,
// the table's own both on the key index path and through a filter. The parent
// query's own allocations are subtracted. The filtered child reads F, the same
// table at either size: a scan allocates per partition, and an index built
// over the rows it kept per distinct key, so only its parents vary.
func TestCasesetAllocations(t *testing.T) {
	assembly := func(parents int) float64 {
		db := storage.NewDatabase()
		e := sqlengine.NewEngine(db)
		for _, s := range []string{"CREATE TABLE P (K LONG, Name TEXT)", "CREATE TABLE C (Name TEXT, K LONG, V DOUBLE)", "CREATE TABLE F (K LONG, V DOUBLE)"} {
			if _, err := e.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		p, _ := db.Table("P")
		c, _ := db.Table("C")
		f, _ := db.Table("F")
		for j := range 3 * storage.DefaultMorselSize {
			if err := f.Insert(rowset.Row{int64(j % 1000), float64(j % 3)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range parents {
			if err := p.Insert(rowset.Row{int64(i), fmt.Sprint("p", i)}); err != nil {
				t.Fatal(err)
			}
			for j := range 2 {
				if err := c.Insert(rowset.Row{fmt.Sprint("c", j), int64(i), float64(j)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		q, err := ParseString(`SHAPE {SELECT K, Name FROM P}
			APPEND ({SELECT K, V FROM C} RELATE K TO K) AS A
			APPEND ({SELECT Name, K FROM C ORDER BY K} RELATE K TO K) AS B
			APPEND ({SELECT V, K FROM F WHERE V > 0} RELATE K TO K) AS F`)
		if err != nil {
			t.Fatal(err)
		}
		ctx := t.Context()
		cs, err := q.Run(ctx, e) // builds the indexes
		if err != nil || len(cs.Rows) != parents || len(cs.Tables[1].Pos) != 2*parents || len(cs.Tables[2].Pos) != 2*storage.DefaultMorselSize {
			t.Fatalf("%d parents: caseset of %d rows, %v", parents, len(cs.Rows), err)
		}
		shaped := testing.AllocsPerRun(10, func() { _, _ = q.Run(ctx, e) })
		query := testing.AllocsPerRun(10, func() { _, _ = e.QueryContext(ctx, q.Root) })
		return shaped - query
	}
	small, large := assembly(1000), assembly(10000)
	if small != large {
		t.Errorf("assembling the caseset took %v allocations at 1k parents and %v at 10k; want the same", small, large)
	}
	t.Logf("%v allocations for three APPENDs", large)
}
