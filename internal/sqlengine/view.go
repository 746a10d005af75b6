package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// Views implement the paper's Section 3.1 prescription: "in order to use
// data mining, a key step is to be able to pull the information related to
// an entity into a single rowset using views". CREATE VIEW stores a named
// SELECT; FROM clauses resolve view names before table names, so SHAPE
// inner queries (and anything else) can consume them transparently.

// CreateViewStmt is CREATE VIEW name AS SELECT ...
type CreateViewStmt struct {
	Name  string
	Query *SelectStmt
}

func (*CreateViewStmt) stmt() {}

// DropViewStmt is DROP VIEW name.
type DropViewStmt struct {
	Name string
}

func (*DropViewStmt) stmt() {}

// viewCatalog stores view definitions on the engine.
type viewCatalog struct {
	mu    sync.RWMutex
	views map[string]*SelectStmt
}

func (vc *viewCatalog) get(name string) (*SelectStmt, bool) {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	v, ok := lex.LookupFold(vc.views, name)
	return v, ok
}

func (vc *viewCatalog) put(name string, q *SelectStmt) error {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.views == nil {
		vc.views = make(map[string]*SelectStmt)
	}
	key := strings.ToLower(name)
	if _, dup := vc.views[key]; dup {
		return fmt.Errorf("sqlengine: view %q already exists", name)
	}
	vc.views[key] = q
	return nil
}

func (vc *viewCatalog) drop(name string) error {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := vc.views[key]; !ok {
		return fmt.Errorf("sqlengine: no view named %q", name)
	}
	delete(vc.views, key)
	return nil
}

// ViewNames lists defined views, for shell introspection.
func (e *Engine) ViewNames() []string {
	e.views.mu.RLock()
	defer e.views.mu.RUnlock()
	out := make([]string, 0, len(e.views.views))
	for k := range e.views.views {
		out = append(out, k)
	}
	return out
}

// execCreateView registers a view after checking that its query runs.
func (e *Engine) execCreateView(ctx context.Context, st *CreateViewStmt) (*rowset.Rowset, error) {
	if _, err := e.DB.Table(st.Name); err == nil {
		return nil, fmt.Errorf("sqlengine: a table named %q already exists", st.Name)
	}
	// Validate eagerly: a view that cannot run is a user error now, not at
	// first use.
	if _, err := e.QueryContext(ctx, st.Query); err != nil {
		return nil, fmt.Errorf("sqlengine: view %q: %w", st.Name, err)
	}
	if err := e.views.put(st.Name, st.Query); err != nil {
		return nil, err
	}
	return affected(0)
}
