package dtree

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rowset"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned_*.txt from the current grower")

// pinnedCaseset is a seeded caseset over every kind of input the grower
// splits on, with the values that are easy to get wrong: a continuous input
// with NaN, +Inf, −Inf and missing cells, one with heavy ties, one present
// only with an existence input, a discrete input whose cells carry states the
// attribute does not have, and two existence inputs. The targets are a
// discrete class and a continuous y in eighths, so that with integer weights
// every sum the grower makes is exact whatever order it adds in; frac gives
// the cases weights in tenths instead.
func pinnedCaseset(seed int64, n int, frac bool) *core.Caseset {
	attrs := []core.Attribute{
		contAttr("x", false),
		contAttr("ties", false),
		discreteAttr("color", []string{"red", "blue", "green"}, false),
		{Name: "bought(a)", Column: "bought", NestedKey: "a", Kind: core.KindExistence, IsInput: true},
		{Name: "bought(b)", Column: "bought", NestedKey: "b", Kind: core.KindExistence, IsInput: true},
		{Name: "bought(a).qty", Column: "bought", NestedKey: "a", Kind: core.KindContinuous, IsInput: true},
		discreteAttr("class", []string{"lo", "mid", "hi"}, true),
		contAttr("y", true),
	}
	attrs[7].IsInput = false
	rng := rand.New(rand.NewSource(seed))
	var rows []map[string]rowset.Value
	for i := 0; i < n; i++ {
		r := map[string]rowset.Value{}
		x, nan, missing := rng.NormFloat64()*10, false, false
		switch u := rng.Float64(); {
		case u < 0.05:
			r["x"], nan = math.NaN(), true
		case u < 0.07:
			r["x"] = math.Inf(1)
		case u < 0.09:
			r["x"] = math.Inf(-1)
		case u < 0.2:
			missing = true
		default:
			r["x"] = x
		}
		if rng.Float64() < 0.85 {
			r["ties"] = float64(rng.Intn(4))
		}
		color := int64(rng.Intn(3))
		switch u := rng.Float64(); {
		case u < 0.05: // missing
		case u < 0.12:
			r["color"] = int64(3 + rng.Intn(5)) // a state the attribute does not have
		default:
			r["color"] = color
		}
		a, b := rng.Float64() < 0.4, rng.Float64() < 0.3
		if a {
			r["bought(a)"] = true
			r["bought(a).qty"] = float64(1 + rng.Intn(6))
		}
		if b {
			r["bought(b)"] = true
		}
		class := int64(0)
		switch {
		case nan || x > 4 && color != 1:
			class = 2
		case a || x < -8 || missing && rng.Float64() < 0.6:
			class = 1
		}
		if rng.Float64() < 0.15 {
			class = int64(rng.Intn(3))
		}
		r["class"] = class
		r["y"] = float64(int(x*8)+8*int(color)+24*int(class))/8 + float64(rng.Intn(8))/8
		rows = append(rows, r)
	}
	cs := buildCaseset(attrs, rows)
	if frac {
		for i := range cs.Weights {
			cs.Weights[i] = []float64{0.3, 0.7, 1.1, 0.9}[rng.Intn(4)]
		}
	}
	return cs
}

// dumpModel writes every tree of m one node a line, numbers in full precision.
func dumpModel(m *Model) string {
	var b strings.Builder
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var rec func(n *node, depth int, cond string)
	rec = func(n *node, depth int, cond string) {
		fmt.Fprintf(&b, "%s%s support=%s", strings.Repeat("  ", depth), cond, g(n.support))
		if n.classCounts != nil {
			b.WriteString(" counts=")
			for i, c := range n.classCounts {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(g(c))
			}
		} else {
			fmt.Fprintf(&b, " n=%s sum=%s sumsq=%s", g(n.n), g(n.sum), g(n.sumsq))
		}
		if n.attr >= 0 {
			fmt.Fprintf(&b, " split=%s thr=%s missing=%d score=%s", m.space.Attr(n.attr).Name, g(n.threshold), n.missing, g(n.score))
		}
		b.WriteByte('\n')
		for i, c := range n.children {
			rec(c, depth+1, fmt.Sprintf("[%d]", i))
		}
	}
	fmt.Fprintf(&b, "partitions=%d\n", m.partitions)
	for _, t := range m.targetOrder {
		rec(m.trees[t], 0, m.space.Attr(t).Name)
	}
	return b.String()
}

// sameDump compares two dumps field by field, numbers within tol relative
// (tol 0: the text must be identical).
func sameDump(got, want string, tol float64) error {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		return fmt.Errorf("%d lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] == wl[i] {
			continue
		}
		gf, wf := strings.FieldsFunc(gl[i], splitField), strings.FieldsFunc(wl[i], splitField)
		if tol == 0 || len(gf) != len(wf) {
			return fmt.Errorf("line %d: %q, want %q", i+1, gl[i], wl[i])
		}
		for j := range gf {
			x, errx := strconv.ParseFloat(gf[j], 64)
			y, erry := strconv.ParseFloat(wf[j], 64)
			if gf[j] != wf[j] && (errx != nil || erry != nil || math.Abs(x-y) > tol*math.Max(1, math.Abs(y))) {
				return fmt.Errorf("line %d: %q, want %q", i+1, gl[i], wl[i])
			}
		}
	}
	return nil
}

func splitField(r rune) bool { return r == ' ' || r == '=' || r == ',' }

// TestPinnedTrees: the grower reproduces the trees recorded in testdata, at
// every worker count. Regenerate only for a change that means to grow
// different trees:
//
//	go test ./internal/algo/dtree -run TestPinnedTrees -update
func TestPinnedTrees(t *testing.T) {
	for _, fx := range []struct {
		name   string
		seed   int64
		frac   bool
		params map[string]string
		tol    float64
	}{
		{"seed3", 3, false, nil, 0},
		{"seed4_support2", 4, false, map[string]string{"MINIMUM_SUPPORT": "2", "COMPLEXITY_PENALTY": "0"}, 0},
		{"frac", 5, true, nil, 1e-9},
	} {
		cs := pinnedCaseset(fx.seed, 2000, fx.frac)
		path := filepath.Join("testdata", "pinned_"+fx.name+".txt")
		for _, workers := range []int{1, 2, 8} {
			tm, err := New().Train(context.Background(), cs, cs.Space.Targets(), fx.params, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := dumpModel(tm.(*Model))
			if *updatePinned && workers == 1 {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameDump(got, string(want), fx.tol); err != nil {
				t.Errorf("%s workers=%d: %v", fx.name, workers, err)
			}
		}
	}
}
