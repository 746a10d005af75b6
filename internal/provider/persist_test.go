package provider

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rowset"
)

// TestSaveLoadPredictEquality: every model of the golden corpus, reopened from
// disk, answers exactly what it answered before — content, PMML, cases and
// predictions — for all six services.
func TestSaveLoadPredictEquality(t *testing.T) {
	dir := t.TempDir()
	p := MustNew(WithDirectory(dir))
	goldenData(t, p)
	for _, gm := range goldenModels {
		if out := goldenTrain(p, gm); strings.Contains(out, "ERROR") {
			t.Fatalf("%s: %s", gm.name, out)
		}
	}
	if err := p.Save(); err != nil {
		t.Fatal(err)
	}
	reopened, err := New(WithDirectory(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, gm := range goldenModels {
		if before, after := goldenAsk(p, gm), goldenAsk(reopened, gm); before != after {
			t.Errorf("%s answers differently after save and load", gm.name)
		}
	}
}

// TestLoadLegacyModelFiles opens model files written by the last commit that
// kept cases as maps (format version 0, checked in under testdata/legacy_v0):
// the cases convert, and the models answer what the golden corpus recorded for
// them at that commit. Decoding such a file into today's case type would have
// produced empty cases and no error.
func TestLoadLegacyModelFiles(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "legacy_v0", "models", "*.dmm"))
	if err != nil || len(files) != 3 {
		t.Fatalf("legacy files = %v, %v", files, err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "models", filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(WithDirectory(dir))
	if err != nil {
		t.Fatal(err)
	}
	goldenData(t, p) // the probe tables; models came from the files
	loaded := 0
	for _, gm := range goldenModels {
		if _, err := os.Stat(filepath.Join(dir, "models", modelFileName(gm.name))); err != nil {
			continue
		}
		loaded++
		golden, err := os.ReadFile(goldenPath(gm))
		if err != nil {
			t.Fatal(err)
		}
		want := string(golden)[strings.Index(string(golden), "== content"):]
		if got := goldenAsk(p, gm); got != want {
			t.Errorf("%s loaded from a version-0 file answers differently from the model that was saved", gm.name)
		}
		// Saving again writes the current format, which loads the same.
		e, err := p.entry(gm.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.saveModel(e); err != nil {
			t.Fatal(err)
		}
	}
	if loaded != 3 {
		t.Fatalf("%d of 3 legacy models matched a golden model", loaded)
	}
	again, err := New(WithDirectory(dir))
	if err != nil {
		t.Fatal(err)
	}
	goldenData(t, again)
	for _, gm := range goldenModels {
		if _, err := again.entry(gm.name); err == nil && goldenAsk(again, gm) != goldenAsk(p, gm) {
			t.Errorf("%s: re-saved legacy model answers differently", gm.name)
		}
	}
}

// TestLoadRejectsUnknownModelFormat: a file from a newer build fails with a
// typed error naming the file, not a guess at its contents.
func TestLoadRejectsUnknownModelFormat(t *testing.T) {
	dir := t.TempDir()
	p := MustNew(WithDirectory(dir))
	mustExec(t, p, `CREATE MINING MODEL [Future] ([ID] LONG KEY, [X] TEXT DISCRETE PREDICT) USING [Naive_Bayes]`)
	e, err := p.entry("Future")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "models", modelFileName("Future"))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&modelFile{Version: modelFormat + 1, Def: e.model.Def, Space: e.model.Space}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(WithDirectory(dir))
	var mfe *ModelFormatError
	if !errors.As(err, &mfe) || mfe.Path != path || mfe.Version != modelFormat+1 {
		t.Fatalf("err = %v, want *ModelFormatError for %s", err, path)
	}
}

// TestLoadRejectsInconsistentCases: a model file whose case arena does not add
// up fails the load instead of indexing out of range later.
func TestLoadRejectsInconsistentCases(t *testing.T) {
	dir := t.TempDir()
	p := MustNew(WithDirectory(dir))
	goldenData(t, p)
	gm := goldenModels[0]
	goldenTrain(p, gm)
	e, err := p.entry(gm.name)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(*modelFile){
		"run past the arena":  func(mf *modelFile) { mf.Coded.Ends[len(mf.Coded.Ends)-1] += 5 },
		"unknown attribute":   func(mf *modelFile) { mf.Coded.Cells[0].Attr = 9999 },
		"unsorted run":        func(mf *modelFile) { mf.Coded.Cells[1].Attr = mf.Coded.Cells[0].Attr },
		"fewer weights":       func(mf *modelFile) { mf.Coded.Weights = mf.Coded.Weights[1:] },
		"version-0 bad attrs": func(mf *modelFile) { mf.Version, mf.Cases = 0, []legacyCase{{Values: map[int]rowset.Value{-4: true}}} },
	} {
		mf := modelFile{Version: modelFormat, Def: e.model.Def, Space: e.model.Space, Coded: e.cases.Clone(), CaseCount: e.model.CaseCount}
		damage(&mf)
		f, err := os.Create(filepath.Join(dir, "models", modelFileName(gm.name)))
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(&mf); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := New(WithDirectory(dir)); err == nil {
			t.Errorf("%s: load succeeded", name)
		}
	}
}
