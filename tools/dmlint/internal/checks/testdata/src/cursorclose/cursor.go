// Package cursorfixture exercises the cursorclose analyzer: every
// acquired rowset.Cursor or rowset.BatchCursor must reach Close (or an
// ownership transfer) on every path out of the function.
package cursorfixture

import (
	"errors"

	"repro/internal/rowset"
)

func open() rowset.Cursor { return nil }

func openErr() (rowset.Cursor, error) { return nil, nil }

func sink(c rowset.Cursor) {}

// openBatch and wrapBatch stand for the engine's batch-only operators: their
// results implement rowset.BatchCursor and not rowset.Cursor.
func openBatch() rowset.BatchCursor { return nil }

func wrapBatch(src rowset.BatchCursor) rowset.BatchCursor { return src }

type holder struct {
	cur rowset.Cursor
}

func leakEarlyReturn(b bool) error {
	c := open()
	if b {
		return errors.New("early") // want "cursor c .*not released"
	}
	return c.Close()
}

func leakAtEnd() {
	c := open()
	_ = c != nil
} // want "cursor c .*not released"

func leakSwitch(k int) error {
	c := open()
	switch k {
	case 0:
		return c.Close()
	case 1:
		return nil // want "cursor c .*not released"
	}
	return c.Close()
}

func leakOverwrite() error {
	c := open()
	c = open() // want "cursor c .*overwritten while still unreleased"
	return c.Close()
}

func leakDiscard() {
	_ = open() // want "cursor returned by this call is discarded"
}

func leakLoop(items []int) {
	for range items {
		c := open()
		if c == nil {
			continue
		}
	} // want "cursor c .*end of loop iteration"
}

func leakBatchEarlyReturn(b bool) error {
	bc := openBatch()
	if b {
		return errors.New("early") // want "cursor bc .*not released"
	}
	return bc.Close()
}

func leakBatchDiscard() {
	_ = openBatch() // want "cursor returned by this call is discarded"
}

func goodBatchTransferWrap() rowset.BatchCursor {
	bc := openBatch()
	return wrapBatch(bc)
}

func goodBatchDrain() error {
	bc := wrapBatch(openBatch())
	defer bc.Close()
	for {
		b, err := bc.NextBatch()
		if err != nil || b.Empty() {
			return err
		}
	}
}

func goodDefer() error {
	c := open()
	defer c.Close()
	return nil
}

func goodErrPath() error {
	c, err := openErr()
	if err != nil {
		return err
	}
	defer c.Close()
	return nil
}

func goodNilGuard() {
	c := open()
	if c != nil {
		_ = c.Close()
	}
}

func goodBothBranches(b bool) error {
	c := open()
	if b {
		return c.Close()
	}
	return c.Close()
}

func goodTransferReturn() rowset.Cursor {
	c := open()
	return c
}

func goodTransferArg() {
	c := open()
	sink(c)
}

func goodTransferField(h *holder) {
	h.cur = open()
}

func goodWrap() rowset.Cursor {
	c := open()
	c2 := c // aliasing hands the obligation to c2
	return c2
}

func goodLoopClose(items []int) error {
	for range items {
		c := open()
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// goodAllowed documents an ownership scheme the analyzer cannot see.
//
//dmlint:allow cursorclose — fixture: the harness closes this cursor.
func goodAllowed() {
	c := open()
	_ = c != nil
}
