package shape

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

// relateEngine holds P (K LONG, Name TEXT), 3,000 parents with repeated and
// NULL keys; C (K LONG, V TEXT, G LONG), three partitions' worth of children
// with NULL keys and keys no parent has, G declared indexed; D (G LONG,
// Label TEXT), one row per G; and the view CV over half of C.
func relateEngine(t *testing.T) (*sqlengine.Engine, *storage.Table) {
	t.Helper()
	db := storage.NewDatabase()
	e := sqlengine.NewEngine(db)
	e.Workers = 2
	for _, s := range []string{
		"CREATE TABLE P (K LONG, Name TEXT)",
		"CREATE TABLE C (K LONG, V TEXT, G LONG)",
		"CREATE TABLE D (G LONG, Label TEXT)",
		"CREATE VIEW CV AS SELECT K, V FROM C WHERE G < 5",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	orNull := func(every int, v int64) rowset.Value {
		if rng.Intn(every) == 0 {
			return nil
		}
		return v
	}
	p, _ := db.Table("P")
	for i := range 3000 {
		if err := p.Insert(rowset.Row{orNull(7, int64(rng.Intn(2500))), fmt.Sprint("n", i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := db.Table("C")
	for range 3*storage.DefaultMorselSize - 100 {
		row := rowset.Row{orNull(5, int64(rng.Intn(3000))), fmt.Sprint("v", rng.Intn(40)), int64(rng.Intn(10))}
		if err := c.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := db.Table("D")
	for g := range 10 {
		if err := d.Insert(rowset.Row{int64(g), fmt.Sprint("g", g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("G"); err != nil {
		t.Fatal(err)
	}
	return e, c
}

// referenceCaseset renders q, a SHAPE with one APPEND, the plain way: the
// child run through QueryContext (a nested SHAPE through ExecuteContext) and
// its output grouped by storage.GroupRows.
func referenceCaseset(t *testing.T, e *sqlengine.Engine, q *Query) *rowset.Rowset {
	t.Helper()
	ctx := t.Context()
	parent, err := e.QueryContext(ctx, q.Root)
	if err != nil {
		t.Fatal(err)
	}
	ap := q.Appends[0]
	var child *rowset.Rowset
	if len(ap.Child.Appends) == 0 {
		child, err = e.QueryContext(ctx, ap.Child.Root)
	} else {
		child, err = ap.Child.ExecuteContext(ctx, e)
	}
	if err != nil {
		t.Fatal(err)
	}
	pOrd, _ := parent.Schema().Lookup(ap.ParentCol)
	cOrd, _ := child.Schema().Lookup(ap.ChildCol)
	keys := make([]rowset.Value, parent.Len())
	for i, r := range parent.Rows() {
		keys[i] = r[pOrd]
	}
	g, err := storage.GroupRows(ctx, child.Rows(), cOrd, child.Schema().Column(cOrd).Type, keys)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := rowset.NewSchema(append(slices.Clone(parent.Schema().Columns),
		rowset.Column{Name: ap.As, Type: rowset.TypeTable, Nested: child.Schema()})...)
	if err != nil {
		t.Fatal(err)
	}
	return (&Caseset{Schema: schema, Rows: parent.Rows(), Tables: []rowset.Groups{g}}).Rowset()
}

func encodeRowset(t *testing.T, rs *rowset.Rowset) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rs.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRelateMatchesExecutedChild: whichever way the engine reads an APPEND
// child — probing the table's key index, draining the partitions of its scan,
// filter or join unprojected, or running it whole — the caseset is byte for
// byte the one running the child through QueryContext and grouping its output
// gives, NULL keys, orphan children and childless parents included. The
// filtered forms read more rows than one partition holds.
func TestRelateMatchesExecutedChild(t *testing.T) {
	e, _ := relateEngine(t)
	for _, tc := range []struct {
		name, child, col string
		path             string // "index", "scan" (unprojected partitions) or "query"
	}{
		{"bare", "SELECT K, V FROM C", "K", "index"},
		{"star", "SELECT * FROM C", "K", "index"},
		{"aliased and qualified", "SELECT c.V AS W, c.K AS Ref FROM C AS c", "Ref", "index"},
		{"duplicate names", "SELECT V, K, V, K FROM C", "K", "index"},
		{"order by key", "SELECT K, V FROM C ORDER BY K", "K", "index"},
		{"order by key desc", "SELECT K, V FROM C ORDER BY K DESC", "K", "query"},
		{"order by qualified key", "SELECT K, V FROM C ORDER BY C.K", "K", "query"},
		{"order by another column", "SELECT K, V FROM C ORDER BY V", "K", "query"},
		{"where", "SELECT K, V FROM C WHERE V <> 'v3' ORDER BY K", "K", "scan"},
		{"pushed probe", "SELECT K, V FROM C WHERE G = 3", "K", "scan"},
		{"view", "SELECT K, V FROM CV", "K", "scan"},
		{"join", "SELECT C.K, D.Label, C.V FROM C INNER JOIN D ON C.G = D.G", "K", "scan"},
		{"computed item", "SELECT K, V || '!' AS W FROM C", "K", "query"},
		{"top", "SELECT TOP 5000 K, V FROM C ORDER BY K", "K", "query"},
		{"nested shape", "SHAPE {SELECT K, G FROM C WHERE V <> 'v3'} APPEND ({SELECT G, Label FROM D} RELATE G TO G) AS Ds", "K", "query"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			child := "{" + tc.child + "}"
			if strings.HasPrefix(tc.child, "SHAPE") {
				child = tc.child
			}
			q, err := ParseString(fmt.Sprintf("SHAPE {SELECT K, Name FROM P} APPEND (%s RELATE K TO %s) AS Kids", child, tc.col))
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace("shape", "")
			cs, err := q.Run(obs.WithTrace(t.Context(), tr), e)
			if err != nil {
				t.Fatal(err)
			}
			indexed := false
			tr.Root().Walk(func(sp *obs.Span, _ int) {
				indexed = indexed || sp.Kind == "scan" && strings.Contains(sp.Label, "index=K")
			})
			path := "query"
			if cs.Tables[0].Cols != nil {
				path = map[bool]string{true: "index", false: "scan"}[indexed]
			}
			if path != tc.path {
				t.Errorf("read by %s, want %s", path, tc.path)
			}
			if got, want := encodeRowset(t, cs.Rowset()), encodeRowset(t, referenceCaseset(t, e, q)); !bytes.Equal(got, want) {
				t.Errorf("caseset differs from the executed child's")
			}
		})
	}
}

// TestFilteredChildSharesStoredRows: a filtered child is not projected or
// copied — every row its groups name is a row of the table's snapshot, the
// same row, and Cols maps the child's columns onto the stored layout.
func TestFilteredChildSharesStoredRows(t *testing.T) {
	e, c := relateEngine(t)
	q, err := ParseString("SHAPE {SELECT K, Name FROM P} APPEND ({SELECT V, K FROM C WHERE G < 8} RELATE K TO K) AS Kids")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Run(t.Context(), e)
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[*rowset.Value]bool)
	for _, r := range c.Snapshot() {
		stored[&r[0]] = true
	}
	g := cs.Tables[0]
	if len(g.Pos) == 0 {
		t.Fatal("no child rows grouped")
	}
	for _, p := range g.Pos {
		if !stored[&g.Base[p][0]] {
			t.Fatalf("child row %v is not a stored row", g.Base[p])
		}
	}
	if !slices.Equal(g.Cols, []int{1, 0}) {
		t.Errorf("Cols = %v, want [1 0]: V and K of C (K, V, G)", g.Cols)
	}
}
