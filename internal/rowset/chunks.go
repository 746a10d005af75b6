package rowset

// Chunked row layout and TEXT interning, shared by storage tables and the
// codec's decoder. Rows are written into chunks: one []Value backing array
// holds many rows, and a row is the capacity-clipped subslice
// chunk[lo:lo+w:lo+w], so an append on a row handed out reallocates instead
// of writing into the next row. When the row count is not known up front (a
// table) the first chunks are small and double — 16, 16, 32, …, 2048 rows,
// 4096 in all — so a small table pins a small array, and every chunk after
// them holds exactly ChunkRows rows. When it is known (a decoded rowset,
// which reads its count first) each chunk holds the rows still to come, up
// to ChunkRows.
//
// A TEXT cell equal to one already stored in the same column shares its
// boxed value through the column's intern dictionary, so the collector marks
// one object per distinct text rather than one per cell. Numbers and dates
// stay boxed per cell. Dictionaries are made at a column's first text, so a
// rowset without TEXT cells makes none.

// ChunkRows is the row count of a full chunk.
const ChunkRows = 4096

// firstChunkRows sizes the first chunk when the row count is not known;
// later chunks double up to ChunkRows.
const firstChunkRows = 16

// maxInterned bounds each TEXT column's intern dictionary. A full dictionary
// still answers hits; it only stops growing.
const maxInterned = 4096

// Chunks hands out rows in chunks and interns their TEXT cells, one
// dictionary per column. The zero value is ready for rows of any fixed
// width; it is not safe for concurrent use.
type Chunks struct {
	chunk   []Value
	rows    int // rows handed out
	want    int // rows expected in all; 0 when not known up front
	interns []map[string]Value
}

// Append copies r into the next row of the chunks, interns its TEXT cells
// and returns the stored row.
func (c *Chunks) Append(r Row) Row {
	row := c.next(len(r))
	copy(row, r)
	for i, v := range row {
		if s, ok := v.(string); ok {
			row[i] = c.intern(i, s, v)
		}
	}
	return row
}

// next returns the next w-wide row, in a fresh chunk when the current one is
// full. A chunk sized by an expected count holds at most maxPrealloc cells,
// since the count may come from untrusted input.
func (c *Chunks) next(w int) Row {
	if cap(c.chunk)-len(c.chunk) < w {
		n := min(max(c.rows, firstChunkRows), ChunkRows)
		if c.want > 0 {
			n = min(max(c.want-c.rows, 1), ChunkRows, max(maxPrealloc/w, 1))
		}
		c.chunk = make([]Value, 0, w*n)
		if c.interns == nil {
			c.interns = make([]map[string]Value, w)
		}
	}
	lo := len(c.chunk)
	c.chunk = c.chunk[:lo+w]
	c.rows++
	return c.chunk[lo : lo+w : lo+w]
}

// dict returns column col's intern dictionary, making it on first use.
func (c *Chunks) dict(col int) map[string]Value {
	d := c.interns[col]
	if d == nil {
		d = make(map[string]Value)
		c.interns[col] = d
	}
	return d
}

// intern returns the box column col's dictionary holds for the text s,
// recording v (s boxed) as that box while the dictionary has room. Only
// identical strings merge, so no value changes.
func (c *Chunks) intern(col int, s string, v Value) Value {
	d := c.dict(col)
	if box, ok := d[s]; ok {
		return box
	}
	if len(d) < maxInterned {
		d[s] = v
	}
	return v
}

// text is intern for a text still in the decoder's buffer: a hit copies and
// boxes nothing.
func (c *Chunks) text(col int, b []byte) Value {
	if box, ok := c.dict(col)[string(b)]; ok {
		return box
	}
	s := string(b)
	return c.intern(col, s, s)
}
