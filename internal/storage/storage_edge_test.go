package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rowset"
)

func TestReplaceValidatesAtomically(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.Insert(rowset.Row{int64(1), "a", 1.0}); err != nil {
		t.Fatal(err)
	}
	// Second row is bad: nothing changes.
	err := tbl.Replace([]rowset.Row{
		{int64(2), "b", 2.0},
		{int64(3), "c"},
	})
	if err == nil {
		t.Fatal("bad arity must fail")
	}
	if tbl.Len() != 1 || tbl.Scan().Row(0)[0] != int64(1) {
		t.Error("failed Replace must leave the table unchanged")
	}
	// Coercion failure also aborts.
	err = tbl.Replace([]rowset.Row{{int64(2), "b", "not-a-number"}})
	if err == nil {
		t.Fatal("bad coercion must fail")
	}
	if tbl.Len() != 1 {
		t.Error("failed Replace must leave the table unchanged")
	}
}

func TestReplaceRebuildsIndexes(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(rowset.Row{int64(1), "old", 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Replace([]rowset.Row{
		{int64(2), "new", 2.0},
		{int64(3), "new", 3.0},
	}); err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.LookupEqualRows("name", "new")
	if err != nil || len(rows) != 2 {
		t.Errorf("index after replace = %d rows, %v", len(rows), err)
	}
	rows, _ = tbl.LookupEqualRows("name", "old")
	if len(rows) != 0 {
		t.Error("stale index entry survived Replace")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "Broken.tbl"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.Load(dir); err == nil {
		t.Error("corrupt table file must fail to load")
	}
}

// TestLoadHugeCounts: a .tbl file that claims 2^62 rows (of no columns) or
// 2^62 columns in a few bytes fails to load instead of panicking.
func TestLoadHugeCounts(t *testing.T) {
	for _, data := range [][]byte{
		{1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
		{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "Huge.tbl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := NewDatabase().Load(dir); err == nil {
			t.Errorf("table file % x loaded", data)
		}
	}
}

func TestLoadSkipsNonTableFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tbl"), 0o755); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.Load(dir); err != nil {
		t.Errorf("unrelated files must be skipped: %v", err)
	}
}

func TestSaveReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase()
	tbl, _ := db.CreateTable("T", testSchema())
	tbl.Insert(rowset.Row{int64(1), "a", 1.0})
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	tbl.Insert(rowset.Row{int64(2), "b", 2.0})
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	// No leftover temp files.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	db2 := NewDatabase()
	if err := db2.Load(dir); err != nil {
		t.Fatal(err)
	}
	got, _ := db2.Table("T")
	if got.Len() != 2 {
		t.Errorf("reloaded rows = %d", got.Len())
	}
}

// TestSaveEscapesTableNames: a table name is any text a bracketed identifier
// can hold; Save must keep its file inside the save directory and Load must
// get the name back.
func TestSaveEscapesTableNames(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "tables")
	db := NewDatabase()
	names := []string{"../escaped", "a/b", "50%", "plain name", ".."}
	for i, name := range names {
		tbl, err := db.CreateTable(name, testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(rowset.Row{int64(i), name, 1.0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if outside, _ := os.ReadDir(root); len(outside) != 1 {
		t.Errorf("Save wrote outside its directory: %v", outside)
	}
	if files, _ := os.ReadDir(dir); len(files) != len(names) {
		t.Errorf("save directory holds %v, want %d table files", files, len(names))
	}
	db2 := NewDatabase()
	if err := db2.Load(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		got, err := db2.Table(name)
		if err != nil {
			t.Errorf("table %q did not survive Save/Load: %v", name, err)
			continue
		}
		if got.Len() != 1 || got.Scan().Row(0)[1] != name {
			t.Errorf("table %q reloaded as %v", name, got.Scan().Rows())
		}
	}
}

// TestSaveSweepsDroppedTables: a table dropped between two saves must not come
// back on Load; files that are not tables are left alone.
func TestSaveSweepsDroppedTables(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase()
	for _, name := range []string{"Keep", "Gone"} {
		if _, err := db.CreateTable(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("Gone"); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase()
	if err := db2.Load(dir); err != nil {
		t.Fatal(err)
	}
	if names := db2.Names(); len(names) != 1 || names[0] != "Keep" {
		t.Errorf("reloaded tables = %v, want [Keep]", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Errorf("Save removed a file that is not a table: %v", err)
	}
}
