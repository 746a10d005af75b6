package core

import (
	"context"
	"fmt"

	"repro/internal/par"
	"repro/internal/rowset"
)

// Cell is one attribute a case has a value for. A case is a run of cells
// sorted by Attr; an attribute without a cell is absent — "not purchased" for
// an existence attribute, SQL NULL for a scalar one. The type holds no
// pointer, map or interface, so a caseset's cells are one allocation the
// garbage collector never looks inside.
type Cell struct {
	// Attr is the attribute's ordinal in the AttributeSpace.
	Attr int32
	// Code is the state index of a DISCRETE or DISCRETIZED value, or numCode
	// when the value is Num.
	Code int32
	// Num is a CONTINUOUS value; an existence cell carries 1.
	Num float64
	// Prob is the certainty a PROBABILITY qualifier attached, else 1.
	Prob float64
}

const numCode = -1

// Case is one tokenized observation: its cells plus the case-level facts that
// do not fit a cell. The cells alias storage owned by whoever built the case —
// a Caseset's arena, or the buffer a CaseBinder's caller reuses — and are
// read-only to everyone else.
type Case struct {
	cells []Cell
	// Weight is the case replication factor from SUPPORT qualifiers.
	Weight float64
	// Key is the case's KEY column value, kept for reporting.
	Key rowset.Value
	// Sequences holds, per nested TABLE column that carries a SEQUENCE_TIME
	// attribute, the nested keys ordered by that time — the raw material of
	// the paper's "sequence analysis" capability.
	Sequences []Sequence
}

// Sequence is the time-ordered nested keys of one TABLE column of one case.
type Sequence struct {
	Table string
	Keys  []string
}

// NewCase returns an empty case of weight 1.
func NewCase() Case { return Case{Weight: 1} }

// reset empties the case for the next row, keeping the cell buffer.
func (c *Case) reset() { *c = Case{cells: c.cells[:0], Weight: 1} }

// Cells returns the case's cells in attribute order.
func (c Case) Cells() []Cell { return c.cells }

// Sequence returns the ordered nested keys recorded for a table column.
func (c Case) Sequence(tableColumn string) []string {
	for _, s := range c.Sequences {
		if s.Table == tableColumn {
			return s.Keys
		}
	}
	return nil
}

// find returns the position of attribute i's cell, or where it would go.
func (c Case) find(i int) (int, bool) {
	lo, hi := 0, len(c.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(c.cells[mid].Attr) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.cells) && int(c.cells[lo].Attr) == i
}

// put stores a value for attribute i, replacing an earlier one (a repeated
// nested key) but keeping its certainty. Cells mostly arrive in attribute
// order, so the common case is an append.
func (c *Case) put(i int, code int32, num float64) {
	n := len(c.cells)
	if n == 0 || int(c.cells[n-1].Attr) < i {
		c.cells = append(c.cells, Cell{Attr: int32(i), Code: code, Num: num, Prob: 1})
		return
	}
	at, ok := c.find(i)
	if !ok {
		c.cells = append(c.cells, Cell{})
		copy(c.cells[at+1:], c.cells[at:])
		c.cells[at].Prob = 1
	}
	c.cells[at].Attr, c.cells[at].Code, c.cells[at].Num = int32(i), code, num
}

// Set gives attribute i a tokenized value: a state index (int64), a number
// (float64), or — anything else — the presence of an existence attribute.
func (c *Case) Set(i int, v rowset.Value) {
	switch x := v.(type) {
	case int64:
		c.put(i, int32(x), 0)
	case float64:
		c.put(i, numCode, x)
	default:
		c.put(i, numCode, 1)
	}
}

// SetProb attaches certainty p to the value attribute i already has; the
// certainty of a missing value means nothing and is dropped.
func (c *Case) SetProb(i int, p float64) {
	if at, ok := c.find(i); ok {
		c.cells[at].Prob = p
	}
}

// Discrete returns the state index of attribute i in the case, or -1 when
// the attribute is absent/NULL or not discrete-valued.
func (c Case) Discrete(i int) int {
	if at, ok := c.find(i); ok && c.cells[at].Code >= 0 {
		return int(c.cells[at].Code)
	}
	return -1
}

// Continuous returns the numeric value of attribute i, with ok=false when
// absent. A state index reads as its number.
func (c Case) Continuous(i int) (float64, bool) {
	at, ok := c.find(i)
	if !ok {
		return 0, false
	}
	return c.cells[at].Value(), true
}

// Value is the cell's content as a number: Num, or the state index.
func (cell Cell) Value() float64 {
	if cell.Code >= 0 {
		return float64(cell.Code)
	}
	return cell.Num
}

// Cell returns attribute i's cell, with ok=false when the case has none.
func (c Case) Cell(i int) (Cell, bool) {
	if at, ok := c.find(i); ok {
		return c.cells[at], true
	}
	return Cell{}, false
}

// Has reports whether attribute i is present in the case.
func (c Case) Has(i int) bool {
	_, ok := c.find(i)
	return ok
}

// ProbOf returns the certainty attached to attribute i (default 1).
func (c Case) ProbOf(i int) float64 {
	if at, ok := c.find(i); ok {
		return c.cells[at].Prob
	}
	return 1
}

// Cases is the storage of a caseset: every case's cells end to end in one
// arena, with the facts a cell cannot hold in parallel arrays. It is also the
// form training cases persist in. Case i owns Cells[Ends[i-1]:Ends[i]].
type Cases struct {
	Cells   []Cell
	Ends    []int32
	Weights []float64
	Keys    []rowset.Value
	// Seqs[i] belongs to case i; the slice is shorter than Ends — usually
	// empty — when the trailing cases have no sequences.
	Seqs [][]Sequence
}

// Len returns the number of cases.
func (cs *Cases) Len() int { return len(cs.Ends) }

// CellsOf returns case i's cells; they alias the arena.
func (cs *Cases) CellsOf(i int) []Cell {
	lo := int32(0)
	if i > 0 {
		lo = cs.Ends[i-1]
	}
	return cs.Cells[lo:cs.Ends[i]:cs.Ends[i]]
}

// CellOf returns case i's cell for attribute a, with ok=false when it has none.
func (cs *Cases) CellOf(i, a int) (Cell, bool) { return Case{cells: cs.CellsOf(i)}.Cell(a) }

// Case returns a view of case i; its cells alias the arena.
func (cs *Cases) Case(i int) Case {
	c := Case{cells: cs.CellsOf(i), Weight: cs.Weights[i], Key: cs.Keys[i]}
	if i < len(cs.Seqs) {
		c.Sequences = cs.Seqs[i]
	}
	return c
}

// Append copies c into the arena; the caller may reuse c's cell buffer.
func (cs *Cases) Append(c Case) {
	if c.Sequences != nil {
		cs.Seqs = append(append(cs.Seqs, make([][]Sequence, len(cs.Ends)-len(cs.Seqs))...), c.Sequences)
	}
	cs.Cells = append(cs.Cells, c.cells...)
	cs.Ends = append(cs.Ends, int32(len(cs.Cells)))
	cs.Weights = append(cs.Weights, c.Weight)
	cs.Keys = append(cs.Keys, c.Key)
}

// Reset empties cs and keeps its room for the next cases.
func (cs *Cases) Reset() {
	cs.Cells, cs.Ends, cs.Weights, cs.Keys, cs.Seqs = cs.Cells[:0], cs.Ends[:0], cs.Weights[:0], cs.Keys[:0], cs.Seqs[:0]
}

// Clone copies the arena and its side arrays, so growing or discretizing the
// copy never reaches the original. Keys and sequences are immutable and shared.
func (cs *Cases) Clone() Cases {
	return Cases{
		Cells:   append([]Cell(nil), cs.Cells...),
		Ends:    append([]int32(nil), cs.Ends...),
		Weights: append([]float64(nil), cs.Weights...),
		Keys:    append([]rowset.Value(nil), cs.Keys...),
		Seqs:    append([][]Sequence(nil), cs.Seqs...),
	}
}

// Check reports what is wrong with cases that arrived from outside the program
// (a model file): arrays that disagree on the number of cases, cell runs that
// overlap or overrun the arena, a run that is not sorted, or a cell for an
// attribute the space of n attributes does not have.
func (cs *Cases) Check(n int) error {
	if len(cs.Weights) != len(cs.Ends) || len(cs.Keys) != len(cs.Ends) || len(cs.Seqs) > len(cs.Ends) {
		return fmt.Errorf("core: cases: %d ends, %d weights, %d keys, %d sequences", len(cs.Ends), len(cs.Weights), len(cs.Keys), len(cs.Seqs))
	}
	lo := int32(0)
	for i, hi := range cs.Ends {
		if hi < lo || int(hi) > len(cs.Cells) {
			return fmt.Errorf("core: case %d: cells [%d:%d] of %d", i, lo, hi, len(cs.Cells))
		}
		for j := lo; j < hi; j++ {
			if a := cs.Cells[j].Attr; a < 0 || int(a) >= n || j > lo && a <= cs.Cells[j-1].Attr {
				return fmt.Errorf("core: case %d: cell for attribute %d out of place among %d attributes", i, a, n)
			}
		}
		lo = hi
	}
	return nil
}

// Caseset is a tokenized training or prediction set: the attribute space
// plus the cases expressed in it.
type Caseset struct {
	Space *AttributeSpace
	Cases
}

// Ranges returns how many ranges a training tokenize and the discretizer cut
// n cases into.
func Ranges(n int) int { return (n + tokenizeRange - 1) / tokenizeRange }

// eachCell calls fn on every case's cell for attribute idx, each range of
// cases a task on forks. A case's cells are sorted by attribute, so its scan
// stops at the first cell past idx.
func (cs *Cases) eachCell(ctx context.Context, forks *par.Forks, idx int, fn func(r int, cell *Cell)) error {
	return forks.Run(ctx, Ranges(cs.Len()), func(r int, _ bool) error {
		lo, first := int32(0), r*tokenizeRange
		if first > 0 {
			lo = cs.Ends[first-1]
		}
		for _, hi := range cs.Ends[first:min(cs.Len(), first+tokenizeRange)] {
			for j := lo; j < hi && int(cs.Cells[j].Attr) <= idx; j++ {
				if int(cs.Cells[j].Attr) == idx {
					fn(r, &cs.Cells[j])
				}
			}
			lo = hi
		}
		return nil
	})
}

// Discretize installs cut points for attribute idx and rewrites every case's
// cell for it, in place, from a raw number to a bucket state; bucket labels
// become the attribute's discrete states. cutsOf computes the cuts from the
// attribute's values in case order; an attribute no case has a value for is
// left as it is. Each range of cases writes its values where its cases are,
// and the ranges are closed up in order; Lo and Hi are folded over the values
// as one front-to-back pass folds them.
func (cs *Caseset) Discretize(ctx context.Context, forks *par.Forks, idx int, cutsOf func(values []float64) ([]float64, error)) error {
	values, ends := make([]float64, cs.Len()), make([]int, Ranges(cs.Len()))
	err := cs.eachCell(ctx, forks, idx, func(r int, c *Cell) { values[r*tokenizeRange+ends[r]], ends[r] = c.Value(), ends[r]+1 })
	n := 0
	for r, end := range ends {
		n += copy(values[n:], values[r*tokenizeRange:r*tokenizeRange+end])
	}
	if err != nil || n == 0 {
		return err
	}
	cuts, err := cutsOf(values[:n])
	if err != nil {
		return err
	}
	a := cs.Space.Attr(idx)
	a.Cuts, a.Kind, a.States = append([]float64(nil), cuts...), KindDiscrete, BucketLabels(cuts)
	a.indexStates()
	for i, f := range values[:n] {
		if i == 0 || f < a.Lo {
			a.Lo = f
		}
		if i == 0 || f > a.Hi {
			a.Hi = f
		}
	}
	return cs.eachCell(ctx, forks, idx, func(_ int, cell *Cell) { cell.Code = int32(bucketOf(cell.Value(), cuts)) })
}
