// Package provider implements the OLE DB for Data Mining provider: the
// component that accepts DMX/SQL command text and exposes mining models as
// first-class objects next to relational tables (Figure 1 of the paper).
//
// A Provider owns a relational database (storage + sqlengine), a mining
// model catalog, and an algorithm registry. Execute dispatches command text:
// DMX statements (CREATE MINING MODEL, INSERT INTO a model, PREDICTION JOIN,
// SELECT FROM <model>.CONTENT, DELETE FROM a model, DROP MINING MODEL, and
// $SYSTEM schema rowsets) run on the mining engine; everything else runs on
// the SQL engine. This mirrors the paper's design: "the mining model can
// participate in interaction with other objects using the primitives listed
// above" without leaving the SQL surface.
package provider

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algo/assoc"
	"repro/internal/algo/cluster"
	"repro/internal/algo/dtree"
	"repro/internal/algo/linreg"
	"repro/internal/algo/markov"
	"repro/internal/algo/nbayes"
	"repro/internal/core"
	"repro/internal/lex"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

// Provider is an in-process OLE DB DM provider instance.
type Provider struct {
	// DB is the relational substrate holding source tables.
	DB *storage.Database
	// Engine executes the SQL subset over DB.
	Engine *sqlengine.Engine
	// Registry holds the installed mining services.
	Registry *core.Registry

	// snap is the published model-catalog snapshot. Readers (predictions,
	// content browsing, $SYSTEM rowsets, semantic checks) load it once and
	// never lock: a snapshot and every modelEntry reachable from it are
	// immutable after publication. Writers build replacement entries off to
	// the side under commitMu and swap in a fresh snapshot atomically, so a
	// long training run never blocks a single read.
	snap atomic.Pointer[catalogSnapshot]

	// commitMu is the snapshot-swap mutex: it serializes catalog writers
	// (CREATE/DROP/DELETE FROM/INSERT INTO a model, persistence load) and
	// guards the writer-owned working map below; the annotation is
	// machine-checked by tools/dmlint (lockcheck).
	//
	//dmlint:guard commitMu: Provider.catalog
	commitMu sync.Mutex
	catalog  map[string]*modelEntry // keyed by lower-cased model name

	// versions tracks catalog-object versions (models, tables, and views in
	// one namespace) and planCache maps normalized statement text to compiled
	// plans validated against those versions. planCacheCap overrides the
	// cache's LRU capacity when positive.
	versions     *plancache.Versions
	planCache    *plancache.Cache
	planCacheCap int

	// dir enables persistence when non-empty (see persist.go).
	dir string

	// parallelism caps the goroutines one statement runs on: the partitions
	// of its scans (SELECT, PREDICTION JOIN; Engine.Workers) and the subtrees
	// a training grows (Decision_Trees), all through par.Forks.Run and within
	// its process-wide bound. Defaults to runtime.GOMAXPROCS(0); 1 forces the
	// sequential path.
	parallelism int

	// maxInFlight bounds concurrently executing statements per session
	// (admission control). 0 means unbounded. Sessions may override it with
	// WithSessionMaxInFlight.
	maxInFlight int

	// obs is the observability registry behind the $SYSTEM.DM_QUERY_LOG,
	// DM_FLIGHT_RECORDER, DM_PROVIDER_METRICS, DM_METRICS_HISTORY and
	// DM_CONNECTIONS schema rowsets. nil disables instrumentation entirely
	// (all handles below become no-ops).
	obs    *obs.Registry
	obsSet bool // an option supplied obs explicitly (possibly nil)

	// Cached hot-path metric handles (nil-safe when obs is nil).
	execTotal       *obs.Counter
	execErrors      *obs.Counter
	execCancels     *obs.Counter
	rowsOut         *obs.Counter
	latency         *obs.Histogram
	preparedTotal   *obs.Counter
	preparedExec    *obs.Counter
	preparedReplans *obs.Counter
	admInFlight     *obs.Gauge
	admQueueDepth   *obs.Gauge
	admRejected     *obs.Counter

	// Dimensional handles: per-origin and per-model families
	// (bounded-cardinality labels; see obs.DefaultVecMaxLabels). The
	// per-class ones are reached through each plan's obs.Class.
	stmtsByOrigin *obs.CounterVec
	predsByModel  *obs.CounterVec
	trainsByModel *obs.CounterVec
}

// catalogSnapshot is one published, immutable view of the model catalog.
// The map and every entry in it are read-only after the snapshot is stored;
// a catalog change builds a new map (sharing unchanged entries) and swaps
// the pointer.
type catalogSnapshot struct {
	models map[string]*modelEntry // keyed by lower-cased model name
}

// modelEntry couples a catalogued model with its tokenizer and accumulated
// training cases (INSERT INTO may run repeatedly; each run retrains over
// everything consumed so far). Entries are immutable once published in a
// snapshot: training clones the space and cases, trains on the clones, and
// publishes a replacement entry, so concurrent readers keep a consistent
// (model, tokenizer, cases) triple for as long as they hold the pointer.
type modelEntry struct {
	model     *core.Model
	tokenizer *core.Tokenizer
	cases     core.Cases
}

// Option configures a Provider.
type Option func(*Provider)

// WithDirectory enables disk persistence: tables under dir/tables, models
// under dir/models. Existing state is loaded by New.
func WithDirectory(dir string) Option {
	return func(p *Provider) { p.dir = dir }
}

// WithParallelism caps the goroutines one statement's partitions, or one
// training's trees, run on. n <= 0 restores the default
// (runtime.GOMAXPROCS(0)); n == 1 forces sequential execution.
func WithParallelism(n int) Option {
	return func(p *Provider) { p.parallelism = n }
}

// WithObsRegistry installs an externally owned observability registry, so
// several providers (or a provider and its server) can share one metrics
// namespace. Passing nil disables observability: no counters, no latency
// histograms, no query log — the instrumentation hooks degrade to no-ops.
func WithObsRegistry(r *obs.Registry) Option {
	return func(p *Provider) { p.obs, p.obsSet = r, true }
}

// WithPlanCacheCap bounds the plan cache's LRU capacity
// (plancache.DefaultCap when n <= 0). Small caps are mainly useful in tests
// that need eviction pressure.
func WithPlanCacheCap(n int) Option {
	return func(p *Provider) { p.planCacheCap = n }
}

// WithMaxInFlight bounds the number of statements a session executes
// concurrently (admission control). A statement arriving at a full session
// waits in a bounded queue (at most n waiters); when the queue is also full
// it is rejected immediately with a *BusyError. n <= 0 (the default) leaves
// sessions unbounded. Individual sessions may override the bound with
// WithSessionMaxInFlight.
func WithMaxInFlight(n int) Option {
	return func(p *Provider) { p.maxInFlight = n }
}

// New creates a provider with the six reference mining services installed
// (Decision_Trees, Naive_Bayes, Clustering, Association_Rules,
// Linear_Regression, Sequence_Analysis).
func New(opts ...Option) (*Provider, error) {
	db := storage.NewDatabase()
	p := &Provider{
		DB:       db,
		Engine:   sqlengine.NewEngine(db),
		Registry: core.NewRegistry(),
		catalog:  make(map[string]*modelEntry),
	}
	p.snap.Store(&catalogSnapshot{models: map[string]*modelEntry{}})
	p.Registry.Register(dtree.New())
	p.Registry.Register(nbayes.New())
	p.Registry.Register(cluster.New())
	p.Registry.Register(assoc.New())
	p.Registry.Register(linreg.New())
	p.Registry.Register(markov.New())
	// The paper's running example names its service [Decision_Trees_101].
	p.Registry.RegisterAs("Decision_Trees_101", dtree.New())
	for _, o := range opts {
		o(p)
	}
	// The SQL engine's statement partitions share the provider's worker
	// bound (<= 0 means GOMAXPROCS there too).
	p.Engine.Workers = p.parallelism
	if !p.obsSet {
		p.obs = obs.NewRegistry()
	}
	p.execTotal = p.obs.Counter(obs.MetricStatementsTotal)
	p.execErrors = p.obs.Counter(obs.MetricErrorsTotal)
	p.execCancels = p.obs.Counter(obs.MetricCancelledTotal)
	p.rowsOut = p.obs.Counter(obs.MetricRowsOutTotal)
	p.latency = p.obs.Histogram(obs.MetricStatementLatency)
	p.preparedTotal = p.obs.Counter(obs.MetricPreparedTotal)
	p.preparedExec = p.obs.Counter(obs.MetricPreparedExecTotal)
	p.preparedReplans = p.obs.Counter(obs.MetricPreparedReplans)
	p.admInFlight = p.obs.Gauge(obs.MetricAdmissionInFlight)
	p.admQueueDepth = p.obs.Gauge(obs.MetricAdmissionQueueDepth)
	p.admRejected = p.obs.Counter(obs.MetricAdmissionRejected)
	p.stmtsByOrigin = p.obs.CounterVec(obs.MetricStatementsByOrigin, obs.LabelOrigin)
	p.predsByModel = p.obs.CounterVec(obs.MetricPredictionsByModel, obs.LabelModel)
	p.trainsByModel = p.obs.CounterVec(obs.MetricTrainingsByModel, obs.LabelModel)
	p.Engine.Instrument(p.obs)
	p.versions = plancache.NewVersions()
	p.planCache = plancache.NewCache(p.versions, p.planCacheCap)
	p.planCache.SetMetrics(plancache.Metrics{
		Hits:          p.obs.Counter(obs.MetricPlanCacheHits),
		Misses:        p.obs.Counter(obs.MetricPlanCacheMisses),
		Evictions:     p.obs.Counter(obs.MetricPlanCacheEvictions),
		Invalidations: p.obs.Counter(obs.MetricPlanCacheInvalidations),
	})
	// Table and view DDL executed by the SQL engine invalidates dependent
	// cached plans; model DDL bumps versions in createModel/dropModel.
	p.Engine.SetDDLHook(p.versions.Bump)
	if p.dir != "" {
		if err := p.load(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Obs returns the provider's observability registry (nil when disabled).
// The same data is queryable in-band through the $SYSTEM.DM_QUERY_LOG,
// DM_PROVIDER_METRICS, and DM_CONNECTIONS schema rowsets.
func (p *Provider) Obs() *obs.Registry { return p.obs }

// IsModel reports whether name refers to a catalogued mining model.
func (p *Provider) IsModel(name string) bool {
	_, ok := lex.LookupFold(p.snap.Load().models, name)
	return ok
}

// Model returns the catalogued model by name. A miss reports a
// *core.NotFoundError. The returned model is an immutable snapshot: a
// concurrent INSERT INTO publishes a replacement rather than mutating it.
func (p *Provider) Model(name string) (*core.Model, error) {
	e, err := p.entry(name)
	if err != nil {
		return nil, err
	}
	return e.model, nil
}

// entry resolves a model against the current catalog snapshot, lock-free.
func (p *Provider) entry(name string) (*modelEntry, error) {
	e, ok := lex.LookupFold(p.snap.Load().models, name)
	if !ok {
		return nil, &core.NotFoundError{Kind: "mining model", Name: name}
	}
	return e, nil
}

// ModelNames lists catalogued models, sorted.
func (p *Provider) ModelNames() []string {
	snap := p.snap.Load()
	names := make([]string, 0, len(snap.models))
	for _, e := range snap.models {
		names = append(names, e.model.Def.Name)
	}
	sort.Strings(names)
	return names
}

// allModels lists the catalogued models from the current snapshot, sorted by
// name so $SYSTEM rowsets render deterministically.
func (p *Provider) allModels() []*core.Model {
	snap := p.snap.Load()
	out := make([]*core.Model, 0, len(snap.models))
	for _, e := range snap.models {
		out = append(out, e.model)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}

// ModelDef implements sem.Catalog: the definition of a catalogued model.
// A miss reports a *core.NotFoundError.
func (p *Provider) ModelDef(name string) (*core.ModelDef, error) {
	e, err := p.entry(name)
	if err != nil {
		return nil, err
	}
	return e.model.Def, nil
}

// TableSchema implements sem.Catalog: the schema of a relational table.
// A miss reports a *core.NotFoundError.
func (p *Provider) TableSchema(name string) (*rowset.Schema, error) {
	t, err := p.DB.Table(name)
	if err != nil {
		return nil, &core.NotFoundError{Kind: "table", Name: name}
	}
	return t.Schema(), nil
}

// publishLocked swaps in a fresh catalog snapshot built from the writer's
// working map. commitMu must be held.
func (p *Provider) publishLocked() {
	models := make(map[string]*modelEntry, len(p.catalog))
	for k, v := range p.catalog {
		models[k] = v
	}
	p.snap.Store(&catalogSnapshot{models: models})
}

// createModel registers a validated model definition.
func (p *Provider) createModel(def *core.ModelDef) (*rowset.Rowset, error) {
	if _, err := p.Registry.Lookup(def.Algorithm); err != nil {
		return nil, err
	}
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	key := strings.ToLower(def.Name)
	if _, dup := p.catalog[key]; dup {
		return nil, fmt.Errorf("provider: mining model %q already exists", def.Name)
	}
	e := &modelEntry{
		model:     &core.Model{Def: def},
		tokenizer: core.NewTokenizer(def),
	}
	e.model.Space = e.tokenizer.Space
	// Persist before publishing: a snapshot never exposes an entry whose
	// save failed, and the entry is still writer-private here.
	if err := p.saveModel(e); err != nil {
		return nil, err
	}
	p.catalog[key] = e
	p.publishLocked()
	// A new model changes DMX/SQL dispatch for statements naming it (INSERT
	// INTO <name> now trains instead of inserting rows), so cached plans on
	// the name must die.
	p.versions.Bump(def.Name)
	return status("model created")
}

// deleteFrom resets a model (the paper's "emptied (reset) via DELETE") by
// publishing a fresh, untrained entry. In-flight readers keep the old
// trained snapshot until they finish — the copy-on-write analogue of a
// reader holding a read lock across its statement.
func (p *Provider) deleteFrom(name string) (*rowset.Rowset, error) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	key := strings.ToLower(name)
	old, ok := p.catalog[key]
	if !ok {
		return nil, &core.NotFoundError{Kind: "mining model", Name: name}
	}
	e := &modelEntry{
		model:     &core.Model{Def: old.model.Def},
		tokenizer: core.NewTokenizer(old.model.Def),
	}
	e.model.Space = e.tokenizer.Space
	if err := p.saveModel(e); err != nil {
		return nil, err
	}
	p.catalog[key] = e
	p.publishLocked()
	return status("model reset")
}

func (p *Provider) dropModel(name string) (*rowset.Rowset, error) {
	p.commitMu.Lock()
	key := strings.ToLower(name)
	_, ok := p.catalog[key]
	if !ok {
		p.commitMu.Unlock()
		return nil, &core.NotFoundError{Kind: "mining model", Name: name}
	}
	delete(p.catalog, key)
	p.publishLocked()
	p.commitMu.Unlock()
	p.versions.Bump(name)
	if err := p.removeModelFile(name); err != nil {
		return nil, err
	}
	return status("model dropped")
}

// status renders a one-cell result for DDL-style statements.
func status(msg string) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(rowset.Column{Name: "status", Type: rowset.TypeText}))
	if err := rs.AppendVals(msg); err != nil {
		return nil, err
	}
	return rs, nil
}
