package rowset

import (
	"strings"
	"testing"
)

func custSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "Customer ID", Type: TypeLong},
		Column{Name: "Gender", Type: TypeText},
		Column{Name: "Age", Type: TypeDouble},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaDuplicate(t *testing.T) {
	_, err := NewSchema(
		Column{Name: "A", Type: TypeLong},
		Column{Name: "a", Type: TypeText},
	)
	if err == nil {
		t.Fatal("duplicate (case-insensitive) column names must error")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := custSchema(t)
	if i, ok := s.Lookup("gender"); !ok || i != 1 {
		t.Errorf("Lookup(gender) = %d,%v", i, ok)
	}
	if i, ok := s.Lookup("t.Age"); !ok || i != 2 {
		t.Errorf("Lookup(t.Age) = %d,%v", i, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

// TestSchemaLookupAllocatesNothing: resolving a name — any case, qualified or
// not — does not allocate, and non-ASCII and long names still fold like
// strings.ToLower.
func TestSchemaLookupAllocatesNothing(t *testing.T) {
	long := strings.Repeat("Wide", 20)
	s := MustSchema(
		Column{Name: "Customer ID", Type: TypeLong},
		Column{Name: "t.Age", Type: TypeDouble},
		Column{Name: "Größe", Type: TypeText},
		Column{Name: long, Type: TypeText},
	)
	for name, want := range map[string]int{
		"Customer ID": 0, "customer id": 0, "CUSTOMER ID": 0, "c.[x].Customer ID": 0,
		"t.Age": 1, "T.AGE": 1, "GRÖSSE": -1, "GRÖßE": 2, strings.ToUpper(long): 3, "x." + long: 3,
	} {
		i, ok := s.Lookup(name)
		if !ok {
			i = -1
		}
		if i != want {
			t.Errorf("Lookup(%q) = %d, want %d", name, i, want)
		}
	}
	for _, name := range []string{"Customer ID", "customer id", "CUSTOMER ID", "c.Customer ID", "T.AGE", "nope"} {
		if n := testing.AllocsPerRun(100, func() { s.Lookup(name) }); n != 0 {
			t.Errorf("Lookup(%q): %v allocations, want 0", name, n)
		}
	}
}

func TestSchemaProject(t *testing.T) {
	s := custSchema(t)
	p, ords, err := s.Project([]string{"Age", "Customer ID"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || ords[0] != 2 || ords[1] != 0 {
		t.Errorf("Project = %v %v", p.Names(), ords)
	}
	if _, _, err := s.Project([]string{"missing"}); err == nil {
		t.Error("Project(missing) should fail")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := custSchema(t)
	b := custSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas must be equal")
	}
	c := MustSchema(Column{Name: "Customer ID", Type: TypeLong})
	if a.Equal(c) {
		t.Error("different arity must not be equal")
	}
	nested := MustSchema(
		Column{Name: "P", Type: TypeTable, Nested: MustSchema(Column{Name: "X", Type: TypeLong})},
	)
	nested2 := MustSchema(
		Column{Name: "P", Type: TypeTable, Nested: MustSchema(Column{Name: "X", Type: TypeText})},
	)
	if nested.Equal(nested2) {
		t.Error("nested type mismatch must not be equal")
	}
}

func TestAppendAndValue(t *testing.T) {
	rs := New(custSchema(t))
	if err := rs.Append(Row{int64(1), "Male", 35.0}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Append(Row{1, "F"}); err == nil {
		t.Error("arity mismatch must error")
	}
	// int is normalized to int64.
	if err := rs.Append(Row{2, "Female", 41.0}); err != nil {
		t.Fatal(err)
	}
	v, err := rs.Value(1, "customer id")
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(2) {
		t.Errorf("Value = %#v", v)
	}
	if _, err := rs.Value(0, "zzz"); err == nil {
		t.Error("unknown column must error")
	}
}

func TestSort(t *testing.T) {
	rs := New(custSchema(t))
	mustAppend(rs, int64(3), "b", 10.0)
	mustAppend(rs, int64(1), "a", 30.0)
	mustAppend(rs, int64(2), "a", 20.0)
	rs.Sort([]int{1, 2}, []bool{false, true})
	// Gender asc, Age desc: (a,30), (a,20), (b,10)
	if rs.Row(0)[0] != int64(1) || rs.Row(1)[0] != int64(2) || rs.Row(2)[0] != int64(3) {
		t.Errorf("sort order wrong: %v", rs.Rows())
	}
}

func TestSortStable(t *testing.T) {
	s := MustSchema(Column{Name: "k", Type: TypeLong}, Column{Name: "seq", Type: TypeLong})
	rs := New(s)
	for i := 0; i < 20; i++ {
		mustAppend(rs, int64(i%3), int64(i))
	}
	rs.Sort([]int{0}, nil)
	last := map[int64]int64{}
	for _, r := range rs.Rows() {
		k, seq := r[0].(int64), r[1].(int64)
		if prev, ok := last[k]; ok && seq < prev {
			t.Fatalf("sort not stable for key %d", k)
		}
		last[k] = seq
	}
}

func TestCloneIsDeep(t *testing.T) {
	inner := New(MustSchema(Column{Name: "x", Type: TypeLong}))
	mustAppend(inner, int64(1))
	outer := New(MustSchema(Column{Name: "t", Type: TypeTable, Nested: inner.Schema()}))
	mustAppend(outer, inner)

	cl := outer.Clone()
	mustAppend(inner, int64(2))
	got := cl.Row(0)[0].(*Rowset)
	if got.Len() != 1 {
		t.Errorf("clone shares nested rowset: len=%d", got.Len())
	}
}

func TestFlatWidth(t *testing.T) {
	inner := New(MustSchema(Column{Name: "x", Type: TypeLong}, Column{Name: "y", Type: TypeText}))
	mustAppend(inner, int64(1), "a")
	mustAppend(inner, int64(2), "b")
	outer := New(MustSchema(
		Column{Name: "id", Type: TypeLong},
		Column{Name: "t", Type: TypeTable, Nested: inner.Schema()},
	))
	mustAppend(outer, int64(9), inner)
	if w := outer.FlatWidth(); w != 5 { // id + 2*2 nested cells
		t.Errorf("FlatWidth = %d want 5", w)
	}
}

func TestStringRendering(t *testing.T) {
	rs := New(custSchema(t))
	mustAppend(rs, int64(1), "Male", 35.0)
	out := rs.String()
	for _, want := range []string{"Customer ID", "Gender", "Age", "Male", "35.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
}

func TestStringNested(t *testing.T) {
	inner := New(MustSchema(Column{Name: "p", Type: TypeText}))
	mustAppend(inner, "TV")
	outer := New(MustSchema(Column{Name: "t", Type: TypeTable, Nested: inner.Schema()}))
	mustAppend(outer, inner)
	if !strings.Contains(outer.String(), "{(TV)}") {
		t.Errorf("nested rendering wrong:\n%s", outer.String())
	}
}

func TestFromRows(t *testing.T) {
	s := custSchema(t)
	rs, err := FromRows(s, []Row{{int64(1), "M", 1.0}, {int64(2), "F", 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Errorf("len = %d", rs.Len())
	}
	if _, err := FromRows(s, []Row{{int64(1)}}); err == nil {
		t.Error("bad arity must error")
	}
}
