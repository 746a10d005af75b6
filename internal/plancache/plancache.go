// Package plancache provides the provider's prepared-plan infrastructure:
// statement-text normalization (so keyword case and insignificant whitespace
// share a cache entry), a version registry for catalog objects (so DROP or
// CREATE of a referenced model, table, or view invalidates dependent plans),
// and a small LRU cache mapping normalized statement text to compiled plans.
//
//dmlint:guard mu: Cache.entries, Cache.order, Cache.cap, Versions.m, Versions.epoch
package plancache

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/lex"
	"repro/internal/obs"
)

// Normalize canonicalizes statement text for use as a cache key: tokens are
// joined by single spaces, unquoted identifiers and keywords fold to upper
// case, while string literals and [bracketed] identifiers are preserved
// verbatim (re-escaped) — literal case and embedded quote escapes survive, so
// two statements differing only inside a string stay distinct keys, and
// [Age] must not collide with [AGE]. Unlexable input normalizes to itself, so
// a malformed statement still has a stable (if unshared) key and the parser
// gets to report the real error.
func Normalize(src string) string {
	toks, err := lex.Tokenize(src)
	if err != nil {
		return src
	}
	var b strings.Builder
	b.Grow(len(src))
	for _, t := range toks {
		if t.Kind == lex.EOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case t.Kind == lex.String:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.Text, "'", "''"))
			b.WriteByte('\'')
		case t.Kind == lex.Ident && t.Quoted:
			b.WriteByte('[')
			b.WriteString(strings.ReplaceAll(t.Text, "]", "]]"))
			b.WriteByte(']')
		case t.Kind == lex.Ident:
			b.WriteString(strings.ToUpper(t.Text))
		default:
			b.WriteString(t.Text)
		}
	}
	return b.String()
}

// Dep names one catalog object a cached plan depends on, at the version it
// had when the plan compiled. Names are lower-cased; models, tables, and
// views share the namespace.
type Dep struct {
	Name    string
	Version uint64
}

// Metrics is the set of nil-safe counters a Cache reports into; any field may
// be nil.
type Metrics struct {
	Hits          *obs.Counter
	Misses        *obs.Counter
	Evictions     *obs.Counter
	Invalidations *obs.Counter
}

type entry struct {
	key   string
	value any
	deps  []Dep
	epoch uint64
	elem  *list.Element
}

// DefaultCap is the plan capacity of a zero-configured Cache.
const DefaultCap = 128

// Cache is an LRU map from normalized statement text to compiled plans,
// validated against a Versions registry on every hit so a plan compiled
// before a DROP/CREATE of anything it references can never execute. Safe for
// concurrent use.
type Cache struct {
	versions *Versions
	metrics  Metrics

	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	order   *list.List // front = most recently used
}

// NewCache builds a cache over the given version registry. cap <= 0 selects
// DefaultCap.
func NewCache(versions *Versions, cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Cache{
		versions: versions,
		cap:      cap,
		entries:  make(map[string]*entry),
		order:    list.New(),
	}
}

// SetMetrics wires the cache's counters. Call before serving traffic; the
// Metrics value is copied.
func (c *Cache) SetMetrics(m Metrics) { c.metrics = m }

// Get returns the cached plan for key if present and still valid: every
// dependency must be at the version recorded when the plan was stored. A
// stale entry is removed (counted as an invalidation) and reported as a miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.metrics.Misses.Inc()
		return nil, false
	}
	if c.staleLocked(e) {
		c.removeLocked(e)
		c.mu.Unlock()
		c.metrics.Invalidations.Inc()
		c.metrics.Misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(e.elem)
	v := e.value
	c.mu.Unlock()
	c.metrics.Hits.Inc()
	return v, true
}

// Put stores a plan under key with its dependency versions, evicting the
// least recently used entry when full. epoch must be the registry epoch
// observed BEFORE the plan compiled: if any object changed while compiling,
// the store is silently dropped rather than caching a plan that may embed a
// half-old view of the catalog.
func (c *Cache) Put(key string, value any, deps []Dep, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.versions != nil && c.versions.Epoch() != epoch {
		return
	}
	if e, ok := c.entries[key]; ok {
		e.value, e.deps, e.epoch = value, deps, epoch
		c.order.MoveToFront(e.elem)
		return
	}
	e := &entry{key: key, value: value, deps: deps, epoch: epoch}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.cap {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.metrics.Evictions.Inc()
	}
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached plan.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry)
	c.order.Init()
}

func (c *Cache) staleLocked(e *entry) bool {
	if c.versions == nil {
		return false
	}
	for _, d := range e.deps {
		if c.versions.Get(d.Name) != d.Version {
			return true
		}
	}
	return false
}

func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
}

// Versions tracks a monotonically increasing version per catalog object name
// (lower-cased; one namespace for models, tables, and views) plus a global
// epoch that moves with every bump. Objects never seen have version 0 — which
// is exactly right: a plan compiled against "no such object yet" is invalid
// once the object exists. Safe for concurrent use.
type Versions struct {
	mu    sync.Mutex
	epoch uint64
	m     map[string]uint64
}

// NewVersions builds an empty registry.
func NewVersions() *Versions {
	return &Versions{m: make(map[string]uint64)}
}

// Bump records a catalog change to name (CREATE, DROP, or schema-affecting
// redefinition), invalidating every cached plan that depends on it.
func (v *Versions) Bump(name string) {
	key := strings.ToLower(name)
	v.mu.Lock()
	v.epoch++
	v.m[key]++
	v.mu.Unlock()
}

// Get returns the current version of name.
func (v *Versions) Get(name string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, _ := lex.LookupFold(v.m, name)
	return n
}

// Epoch returns the global change counter.
func (v *Versions) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

// Snapshot resolves the current versions of names into a dependency list.
func (v *Versions) Snapshot(names []string) []Dep {
	if len(names) == 0 {
		return nil
	}
	deps := make([]Dep, len(names))
	v.mu.Lock()
	for i, n := range names {
		key := strings.ToLower(n)
		deps[i] = Dep{Name: key, Version: v.m[key]}
	}
	v.mu.Unlock()
	return deps
}
