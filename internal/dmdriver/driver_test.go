package dmdriver

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"testing"

	"repro/internal/provider/providertest"
)

func openDB(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestExecAndQuery(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	if _, err := db.Exec("CREATE TABLE T (id LONG, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Errorf("rows affected = %d", n)
	}
	rows, err := db.Query("SELECT id, name FROM T ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var ids []int64
	var names []string
	for rows.Next() {
		var id int64
		var name string
		if err := rows.Scan(&id, &name); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		names = append(names, name)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 2 || names[1] != "a" {
		t.Errorf("scan = %v %v", ids, names)
	}
}

func TestPlaceholders(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	if _, err := db.Exec("CREATE TABLE T (id LONG, name TEXT, score DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?, ?)", 7, "it's", 2.5); err != nil {
		t.Fatal(err)
	}
	var name string
	var score float64
	err := db.QueryRow("SELECT name, score FROM T WHERE id = ?", 7).Scan(&name, &score)
	if err != nil {
		t.Fatal(err)
	}
	if name != "it's" || score != 2.5 {
		t.Errorf("got %q %v", name, score)
	}
	// Placeholder count mismatch errors.
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?, ?)", 1); err == nil {
		t.Error("arg count mismatch must fail")
	}
	// '?' inside a string literal is not a placeholder.
	if _, err := db.Exec("INSERT INTO T VALUES (9, '?', 0)"); err != nil {
		t.Fatal(err)
	}
	var q string
	if err := db.QueryRow("SELECT name FROM T WHERE id = 9").Scan(&q); err != nil || q != "?" {
		t.Errorf("literal question mark: %q %v", q, err)
	}
}

func TestNullScan(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	db.Exec("CREATE TABLE T (id LONG, name TEXT)")
	db.Exec("INSERT INTO T (id) VALUES (1)")
	var name sql.NullString
	if err := db.QueryRow("SELECT name FROM T").Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name.Valid {
		t.Error("NULL must scan as invalid")
	}
}

func TestMiningLifecycleOverDriver(t *testing.T) {
	db := openDB(t, "memory:"+t.Name())
	steps := []string{
		"CREATE TABLE People (id LONG, color TEXT, class TEXT)",
	}
	for _, s := range steps {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO People VALUES ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		color, class := "red", "hi"
		if i%2 == 1 {
			color, class = "blue", "lo"
		}
		fmt.Fprintf(&ins, "(%d, '%s', '%s')", i, color, class)
	}
	if _, err := db.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE MINING MODEL [CM] (
		[id] LONG KEY, [color] TEXT DISCRETE, [class] TEXT DISCRETE PREDICT
	) USING [Naive_Bayes]`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO [CM] ([id], [color], [class]) SELECT id, color, class FROM People")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 60 {
		t.Errorf("cases consumed = %d", n)
	}
	var pred string
	var prob float64
	err = db.QueryRow(`SELECT Predict([class]), PredictProbability([class])
		FROM [CM] NATURAL PREDICTION JOIN (SELECT ? AS color) AS t`, "red").Scan(&pred, &prob)
	if err != nil {
		t.Fatal(err)
	}
	if pred != "hi" || prob < 0.9 {
		t.Errorf("prediction = %q %v", pred, prob)
	}
	// Nested results flatten to text.
	var hist string
	err = db.QueryRow(`SELECT PredictHistogram([class])
		FROM [CM] NATURAL PREDICTION JOIN (SELECT 'red' AS color) AS t`).Scan(&hist)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hist, "hi") || !strings.HasPrefix(hist, "{") {
		t.Errorf("flattened histogram = %q", hist)
	}
}

func TestSharedProviderAcrossConnections(t *testing.T) {
	dsn := "memory:" + t.Name()
	db1 := openDB(t, dsn)
	db2 := openDB(t, dsn)
	if _, err := db1.Exec("CREATE TABLE Shared (x LONG)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec("INSERT INTO Shared VALUES (1)"); err != nil {
		t.Fatalf("second connection must see the table: %v", err)
	}
}

func TestRegisteredProvider(t *testing.T) {
	p := providertest.MustNew()
	s := p.NewSession()
	if _, err := s.Execute(context.Background(), "CREATE TABLE R (x LONG)"); err != nil {
		t.Fatal(err)
	}
	RegisterProvider(t.Name(), p)
	db := openDB(t, "registered:"+t.Name())
	if _, err := db.Exec("INSERT INTO R VALUES (42)"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Execute(context.Background(), "SELECT COUNT(*) FROM R")
	if err != nil || rs.Row(0)[0] != int64(1) {
		t.Errorf("provider sharing failed: %v %v", rs, err)
	}
	// Unregistered name fails on first use.
	bad, _ := sql.Open(DriverName, "registered:nope")
	defer bad.Close()
	if err := bad.Ping(); err == nil {
		t.Error("unregistered provider must fail")
	}
}

func TestBadDSN(t *testing.T) {
	db, _ := sql.Open(DriverName, "bogus:thing")
	defer db.Close()
	if err := db.Ping(); err == nil {
		t.Error("bad DSN must fail")
	}
}

func TestFileDSNPersists(t *testing.T) {
	dir := t.TempDir()
	dsn := "file:" + dir
	db := openDB(t, dsn)
	if _, err := db.Exec(`CREATE MINING MODEL [FM] (
		[id] LONG KEY, [x] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`); err != nil {
		t.Fatal(err)
	}
	// The model file lands on disk immediately.
	providersMu.Lock()
	delete(providers, dsn) // force a reopen from disk
	providersMu.Unlock()
	db2 := openDB(t, dsn)
	rows, err := db2.Query("SELECT * FROM $SYSTEM.MINING_MODELS")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n != 1 {
		t.Errorf("models after reopen = %d", n)
	}
}
