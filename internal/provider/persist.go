package provider

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rowset"
)

// Model persistence: each model is one gob file under <dir>/models holding
// the definition, the attribute space, and the accumulated training cases.
// On load, populated models are retrained from their cases — deterministic
// for every bundled algorithm — so the provider resumes exactly where it
// stopped. Relational tables persist separately under <dir>/tables via the
// storage engine's binary format; call Save to snapshot them.

func init() {
	// Case keys (and a legacy file's case values) are rowset.Value (any);
	// register the concrete types.
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register(time.Time{})
}

// modelFormat is the version saveModel writes. Version 0 — files from before
// the field existed — kept each case as maps (legacyCase); loadModel converts
// those, and refuses a version it does not know rather than guess.
const modelFormat = 1

// modelFile is the on-disk model representation.
type modelFile struct {
	Version int
	Def     *core.ModelDef
	Space   *core.AttributeSpace
	// Coded is the training cases; Cases is where a version-0 file has them.
	Coded     core.Cases
	Cases     []legacyCase
	CaseCount int
}

// legacyCase is a version-0 case: attribute index → state index (int64),
// number (float64) or presence (true), with certainties beside them.
type legacyCase struct {
	Values    map[int]rowset.Value
	Prob      map[int]float64
	Weight    float64
	Key       rowset.Value
	Sequences map[string][]string
}

func (lc *legacyCase) coded() core.Case {
	c := core.Case{Weight: lc.Weight, Key: lc.Key}
	for attr, v := range lc.Values {
		c.Set(attr, v)
	}
	for attr, p := range lc.Prob {
		c.SetProb(attr, p)
	}
	for table, keys := range lc.Sequences {
		c.Sequences = append(c.Sequences, core.Sequence{Table: table, Keys: keys})
	}
	sort.Slice(c.Sequences, func(i, j int) bool { return c.Sequences[i].Table < c.Sequences[j].Table })
	return c
}

// ModelFormatError reports a model file written in a format this build does
// not read.
type ModelFormatError struct {
	Path    string
	Version int
}

func (e *ModelFormatError) Error() string {
	return fmt.Sprintf("provider: load model %s: format version %d, this build reads up to %d", e.Path, e.Version, modelFormat)
}

func (p *Provider) modelsDir() string { return filepath.Join(p.dir, "models") }
func (p *Provider) tablesDir() string { return filepath.Join(p.dir, "tables") }

func modelFileName(name string) string {
	// Model names may contain spaces and punctuation; keep letters/digits,
	// map the rest to '_'.
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + ".dmm"
}

// saveModel persists one model entry; a no-op without a directory. Entries
// passed here are either writer-private (freshly built, not yet published)
// or already-published and therefore immutable, so encoding them cannot
// observe a torn model; writers serialize on commitMu, which keeps the
// file writes ordered.
func (p *Provider) saveModel(e *modelEntry) error {
	if p.dir == "" {
		return nil
	}
	if err := os.MkdirAll(p.modelsDir(), 0o755); err != nil {
		return fmt.Errorf("provider: save model: %w", err)
	}
	path := filepath.Join(p.modelsDir(), modelFileName(e.model.Def.Name))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("provider: save model: %w", err)
	}
	mf := modelFile{
		Version:   modelFormat,
		Def:       e.model.Def,
		Space:     e.tokenizer.Space,
		Coded:     e.cases,
		CaseCount: e.model.CaseCount,
	}
	if err := gob.NewEncoder(f).Encode(&mf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("provider: save model %s: %w", e.model.Def.Name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func (p *Provider) removeModelFile(name string) error {
	if p.dir == "" {
		return nil
	}
	err := os.Remove(filepath.Join(p.modelsDir(), modelFileName(name)))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Save snapshots the relational tables (models persist on every change).
func (p *Provider) Save() error {
	if p.dir == "" {
		return fmt.Errorf("provider: no persistence directory configured")
	}
	return p.DB.Save(p.tablesDir())
}

// load restores tables and models from the persistence directory.
func (p *Provider) load() error {
	if err := p.DB.Load(p.tablesDir()); err != nil {
		return err
	}
	entries, err := os.ReadDir(p.modelsDir())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("provider: load models: %w", err)
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".dmm") {
			continue
		}
		if err := p.loadModel(filepath.Join(p.modelsDir(), de.Name())); err != nil {
			return err
		}
	}
	return nil
}

func (p *Provider) loadModel(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("provider: load model: %w", err)
	}
	defer f.Close()
	var mf modelFile
	if err := gob.NewDecoder(f).Decode(&mf); err != nil {
		return fmt.Errorf("provider: load model %s: %w", path, err)
	}
	if mf.Version > modelFormat || mf.Version < 0 {
		return &ModelFormatError{Path: path, Version: mf.Version}
	}
	if mf.Def == nil || mf.Space == nil {
		return fmt.Errorf("provider: load model %s: no model definition in the file", path)
	}
	if err := mf.Def.Validate(); err != nil {
		return fmt.Errorf("provider: load model %s: %w", path, err)
	}
	for i := range mf.Cases {
		mf.Coded.Append(mf.Cases[i].coded())
	}
	if err := mf.Coded.Check(mf.Space.Len()); err != nil {
		return fmt.Errorf("provider: load model %s: %w", path, err)
	}
	mf.Space.Reindex()
	e := &modelEntry{
		model:     &core.Model{Def: mf.Def, Space: mf.Space, CaseCount: mf.CaseCount},
		tokenizer: core.NewTokenizerWithSpace(mf.Def, mf.Space),
		cases:     mf.Coded,
	}
	if e.cases.Len() > 0 {
		algo, err := p.Registry.Lookup(mf.Def.Algorithm)
		if err != nil {
			return fmt.Errorf("provider: load model %s: %w", mf.Def.Name, err)
		}
		full := &core.Caseset{Space: mf.Space, Cases: e.cases}
		ctx := context.Background() //dmlint:allow ctxflow — load-time retrain; provider.New, the caller, has no context to pass.
		trained, err := algo.Train(ctx, full, mf.Space.Targets(), mf.Def.Params, p.parallelism)
		if err != nil {
			return fmt.Errorf("provider: load model %s: retrain: %w", mf.Def.Name, err)
		}
		e.model.Trained = trained
	}
	p.commitMu.Lock()
	p.catalog[strings.ToLower(mf.Def.Name)] = e
	p.publishLocked()
	p.commitMu.Unlock()
	return nil
}
