package storage

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// Database is a named collection of tables — the provider's relational
// catalog. All methods are safe for concurrent use.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table // keyed by lower-cased name
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable adds a new table. Duplicate names (case-insensitive) error.
func (db *Database) CreateTable(name string, schema *rowset.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := NewTable(name, schema)
	db.tables[key] = t
	return t, nil
}

// Table looks up a table by name, case-insensitively.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := lex.LookupFold(db.tables, name)
	if !ok {
		return nil, fmt.Errorf("storage: no table named %q", name)
	}
	return t, nil
}

// DropTable removes a table.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("storage: no table named %q", name)
	}
	delete(db.tables, key)
	return nil
}

// Names returns all table names in sorted order.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

// Save persists every table to dir as one <escaped name>.tbl file each, in the
// rowset binary format, then removes the .tbl files of tables dropped since
// the last save — after the live set is written, so a failed save never loses
// a table — because Load would resurrect them. dir is created if missing.
func (db *Database) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	live := make(map[string]bool, len(db.tables))
	for _, t := range db.tables {
		file := tableFileName(t.Name())
		if err := saveTable(filepath.Join(dir, file), t); err != nil {
			return err
		}
		live[file] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("storage: save: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tbl") || live[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("storage: save: %w", err)
		}
	}
	return nil
}

// tableFileName maps a table name — any text a bracketed identifier can hold,
// path separators and ".." included — to a single path element: percent-
// escaping keeps the file inside the save directory and lets Load recover the
// name exactly.
func tableFileName(name string) string { return url.PathEscape(name) + ".tbl" }

func saveTable(path string, t *Table) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: save table %s: %w", t.Name(), err)
	}
	if err := t.Scan().Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: save table %s: %w", t.Name(), err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads every .tbl file in dir into the database, replacing any table
// with the same name. A missing directory loads nothing and is not an error.
func (db *Database) Load(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: load: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tbl") {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(e.Name(), ".tbl"))
		if err != nil {
			return fmt.Errorf("storage: load table file %s: %w", e.Name(), err)
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("storage: load table %s: %w", name, err)
		}
		rs, err := rowset.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("storage: load table %s: %w", name, err)
		}
		t := NewTable(name, rs.Schema())
		if err := t.InsertMany(rs.Rows()); err != nil {
			return fmt.Errorf("storage: load table %s: %w", name, err)
		}
		db.mu.Lock()
		db.tables[strings.ToLower(name)] = t
		db.mu.Unlock()
	}
	return nil
}
