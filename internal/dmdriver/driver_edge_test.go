package dmdriver

import (
	"database/sql"
	"database/sql/driver"
	"testing"
	"time"
)

func TestPreparedStatements(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	if _, err := db.Exec("CREATE TABLE T (id LONG, at DATE, blob TEXT, flag BOOL)"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("INSERT INTO T VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	when := time.Date(2021, 3, 5, 10, 0, 0, 0, time.UTC)
	if _, err := stmt.Exec(int64(1), when, []byte("raw"), true); err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare("SELECT at, blob, flag FROM T WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var at time.Time
	var blob string
	var flag bool
	if err := q.QueryRow(int64(1)).Scan(&at, &blob, &flag); err != nil {
		t.Fatal(err)
	}
	if !at.Equal(when) || blob != "raw" || !flag {
		t.Errorf("scan = %v %q %v", at, blob, flag)
	}
}

func TestNilArgBindsNull(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	db.Exec("CREATE TABLE T (id LONG, v TEXT)")
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?)", 1, nil); err != nil {
		t.Fatal(err)
	}
	var v sql.NullString
	if err := db.QueryRow("SELECT v FROM T").Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Error("nil arg must bind NULL")
	}
}

func TestTransactionNoop(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	db.Exec("CREATE TABLE T (id LONG)")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	tx2.Exec("INSERT INTO T VALUES (2)")
	// Rollback is a no-op (documented); the row stays.
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	db.QueryRow("SELECT COUNT(*) FROM T").Scan(&n)
	if n != 2 {
		t.Errorf("rows = %d", n)
	}
}

// TestQuoteBearingArgsRoundTrip is the regression test for the old literal
// splicer, which rendered string arguments into command text: a value like
// "O'Brien" either broke the statement or, escaped wrongly, changed its
// shape. Server-side binding must round-trip any string byte-for-byte.
func TestQuoteBearingArgsRoundTrip(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	if _, err := db.Exec("CREATE TABLE T (id LONG, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	hostile := []string{
		"O'Brien",
		"it's ''quoted''",
		"x' OR '1'='1",
		"'; DROP TABLE T; --",
		"tail\\'",
		"[bracket]] 'quote'",
	}
	for i, name := range hostile {
		if _, err := db.Exec("INSERT INTO T VALUES (?, ?)", i, name); err != nil {
			t.Fatalf("insert %q: %v", name, err)
		}
		var got string
		if err := db.QueryRow("SELECT name FROM T WHERE id = ?", i).Scan(&got); err != nil {
			t.Fatalf("select %q: %v", name, err)
		}
		if got != name {
			t.Errorf("round trip = %q, want %q", got, name)
		}
	}
	// An injection-shaped value is data, not statement text: comparing
	// against it matches nothing, and the table survives.
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM T WHERE name = ?", "x' OR '1'='1' --").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("injection-shaped value matched %d rows, want 0", n)
	}
	if err := db.QueryRow("SELECT COUNT(*) FROM T").Scan(&n); err != nil {
		t.Fatalf("table must survive hostile values: %v", err)
	}
	if n != int64(len(hostile)) {
		t.Errorf("rows = %d, want %d", n, len(hostile))
	}
}

// TestNamedArgsRejected pins the binding surface: arguments are positional.
func TestNamedArgsRejected(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	db.Exec("CREATE TABLE T (id LONG)")
	if _, err := db.Exec("INSERT INTO T VALUES (@id)", sql.Named("id", 1)); err == nil {
		t.Error("sql.Named must be rejected")
	}
}

func TestRowsAffectedShapes(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	db.Exec("CREATE TABLE T (id LONG)")
	db.Exec("INSERT INTO T VALUES (1), (2), (3)")
	res, err := db.Exec("DELETE FROM T WHERE id > 1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Errorf("delete affected = %d", n)
	}
	if _, err := res.LastInsertId(); err == nil {
		t.Error("LastInsertId must be unsupported")
	}
	// A DDL statement reports zero.
	res, _ = db.Exec("CREATE TABLE U (x LONG)")
	if n, _ := res.RowsAffected(); n != 0 {
		t.Errorf("ddl affected = %d", n)
	}
}

// TestPlaceholderCountSkipsQuoted pins the placeholder scan the provider
// runs at prepare time: '?' inside a string literal or a bracketed name is
// text, not a parameter, so the prepared statement below takes exactly two
// arguments.
func TestPlaceholderCountSkipsQuoted(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	if _, err := db.Exec("CREATE TABLE [t?] (a LONG, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO [t?] VALUES (1, '?')"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*) FROM [t?] WHERE b = '?' AND a = ? AND b = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	// database/sql enforces NumInput: wrong arity fails before execution.
	if _, err := stmt.Query(int64(1)); err == nil {
		t.Error("one arg for two placeholders must fail")
	}
	var n int64
	if err := stmt.QueryRow(int64(1), "?").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
	// Lex errors in the statement surface at prepare time.
	if _, err := db.Prepare("SELECT 'unterminated"); err == nil {
		t.Error("lex error must surface")
	}
}

func TestQueryOnClosedConn(t *testing.T) {
	c := &conn{closed: true}
	if _, err := c.Prepare("SELECT 1"); err != driver.ErrBadConn {
		t.Errorf("prepare on closed conn = %v", err)
	}
}
