package rowset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Binary wire/storage format for rowsets. Used by the storage engine for
// table persistence and by the client/server protocol. The format is
// self-describing and handles nested-table values recursively:
//
//	rowset  := schema rowcount:uvarint row*
//	schema  := ncols:uvarint (name:str type:byte [schema if TABLE])*
//	row     := value*            (one per column, in schema order)
//	value   := tag:byte payload  (tag = Type; NULL has no payload)
//	str     := len:uvarint bytes
//
// Integers are varint-encoded; doubles are fixed 8-byte little-endian.
// Decoding accepts only the minimal varint form and bool bytes 0 and 1, so
// every accepted input re-encodes to the bytes it came from.
//
// Both directions work on byte windows rather than byte calls. The encoder
// appends values into the bufio.Writer's own free buffer
// (AvailableBuffer) and hands it back to Write when it fills, so it
// allocates nothing. The decoder parses whole rows straight from the
// reader's buffered bytes (Peek, then Discard): a row that runs past them,
// holds a TABLE cell or has any malformed byte is read again a byte at a
// time, and that slow path decides what is an error, so both accept exactly
// the same inputs. Decoded rows are written into a Chunks (chunks.go): one
// backing array per ChunkRows rows instead of one per row, and each TEXT
// cell is looked up by its bytes in its column's intern dictionary and
// copied and boxed only on a miss. The count the header gives sizes the
// chunks, capped so a false count cannot force a large allocation.

const codecVersion = 1

// maxPrealloc caps how many rows or columns a decoder reserves up front
// (1.5 MiB of row headers): the counts come from the input, so a short input
// claiming 2^62 rows must end in a read error, not in one huge allocation.
// Results up to this size still decode into one allocation.
const maxPrealloc = 1 << 16

var errVarint = errors.New("rowset: decode: varint overflows or is not minimal")

// Encode writes the rowset to w in the binary format. When w is a
// *bufio.Writer the encoding goes into its buffer and stays there for the
// caller to flush with whatever follows (the wire's response trailer), so a
// small response leaves in one write; any other writer gets everything
// before Encode returns.
func (rs *Rowset) Encode(w io.Writer) error {
	e := encoder{bw: bufio.NewWriter(w)}
	e.b = e.bw.AvailableBuffer()
	if err := e.rowset(rs); err != nil {
		return err
	}
	if _, err := e.bw.Write(e.b); err != nil || io.Writer(e.bw) == w {
		return err
	}
	return e.bw.Flush()
}

// encoder appends the encoding into its writer's free buffer and hands that
// buffer back to Write only when it fills, so encoding allocates nothing.
type encoder struct {
	bw *bufio.Writer
	b  []byte // appended to bw.AvailableBuffer(), not yet written
}

// room makes sure n more bytes append to e.b without growing it, writing
// out and flushing what it holds when they do not fit. Only a text longer
// than the writer's whole buffer still grows e.b: the one encoding that
// allocates.
func (e *encoder) room(n int) {
	if cap(e.b)-len(e.b) < n {
		e.bw.Write(e.b) //nolint:errcheck // bufio.Writer errors surface at Flush
		e.bw.Flush()    //nolint:errcheck
		e.b = e.bw.AvailableBuffer()
	}
}

// text appends the length-prefixed string s.
func (e *encoder) text(s string) {
	e.room(binary.MaxVarintLen64 + len(s))
	e.b = append(binary.AppendUvarint(e.b, uint64(len(s))), s...)
}

// rowset writes the version byte, schema, row count and rows of rs: the
// whole encoding, and the payload of a TABLE cell.
func (e *encoder) rowset(rs *Rowset) error {
	e.room(1)
	e.b = append(e.b, codecVersion)
	e.schema(rs.schema)
	e.room(binary.MaxVarintLen64)
	e.b = binary.AppendUvarint(e.b, uint64(rs.Len()))
	for _, r := range rs.rows {
		for _, v := range r {
			if err := e.value(v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *encoder) schema(s *Schema) {
	e.room(binary.MaxVarintLen64)
	e.b = binary.AppendUvarint(e.b, uint64(s.Len()))
	for _, c := range s.Columns {
		e.text(c.Name)
		e.room(1)
		e.b = append(e.b, byte(c.Type))
		if c.Type == TypeTable {
			nested := c.Nested
			if nested == nil {
				nested = MustSchema()
			}
			e.schema(nested)
		}
	}
}

func (e *encoder) value(v Value) error {
	e.room(1 + binary.MaxVarintLen64)
	switch x := v.(type) {
	case nil:
		e.b = append(e.b, byte(TypeNull))
	case int64:
		e.b = binary.AppendVarint(append(e.b, byte(TypeLong)), x)
	case float64:
		e.b = binary.LittleEndian.AppendUint64(append(e.b, byte(TypeDouble)), math.Float64bits(x))
	case string:
		e.b = append(e.b, byte(TypeText))
		e.text(x)
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		e.b = append(e.b, byte(TypeBool), b)
	case time.Time:
		e.b = binary.AppendVarint(append(e.b, byte(TypeDate)), x.UnixNano())
	case *Rowset:
		e.b = append(e.b, byte(TypeTable))
		return e.rowset(x)
	default:
		return fmt.Errorf("rowset: encode: unsupported value type %T", v)
	}
	return nil
}

// Decode reads a rowset in the binary format.
func Decode(r io.Reader) (*Rowset, error) {
	return DecodeFrom(bufio.NewReader(r))
}

// DecodeFrom reads a rowset from an existing buffered reader, consuming
// exactly one encoded rowset. Stream protocols (the dmclient/dmserver wire
// format) use it to read several rowsets from one connection without losing
// buffered bytes between messages.
func DecodeFrom(br *bufio.Reader) (*Rowset, error) {
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("rowset: decode: %w", err)
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("rowset: decode: unsupported version %d", ver)
	}
	schema, err := decodeSchema(br)
	if err != nil {
		return nil, err
	}
	n, err := ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rowset: decode row count: %w", err)
	}
	w := schema.Len()
	// A row of no columns takes no bytes, so nothing in the input bounds
	// how many of them a count can claim.
	if w == 0 && n > 0 {
		return nil, fmt.Errorf("rowset: decode: %d rows without columns", n)
	}
	rows := make([]Row, 0, min(n, maxPrealloc))
	c := Chunks{want: int(min(n, math.MaxInt32))}
	// Whole rows are parsed from the bytes already buffered; a row that
	// runs past them, holds a TABLE cell or is malformed is read a byte at
	// a time, and the window is taken afresh after it.
	win, _ := br.Peek(br.Buffered())
	off := 0
	for i := uint64(0); i < n; i++ {
		row := c.next(w)
		if k := c.parseRow(row, win[off:]); k > 0 {
			off += k
		} else {
			br.Discard(off) //nolint:errcheck // off bytes are buffered
			if err := c.readRow(br, row); err != nil {
				return nil, err
			}
			win, _ = br.Peek(br.Buffered())
			off = 0
		}
		rows = append(rows, row)
	}
	br.Discard(off) //nolint:errcheck
	return Adopt(schema, rows), nil
}

// parseRow fills row from the front of b and returns the bytes it took, or
// 0 when b does not hold the whole row, a cell is a TABLE or any byte is
// malformed. It accepts exactly what readRow accepts.
func (c *Chunks) parseRow(row Row, b []byte) int {
	i := 0
	for j := range row {
		if i >= len(b) {
			return 0
		}
		tag := Type(b[i])
		i++
		switch tag {
		case TypeNull:
			row[j] = nil
		case TypeLong, TypeDate:
			x, k := uvarint(b[i:])
			if k == 0 {
				return 0
			}
			i += k
			if tag == TypeLong {
				row[j] = unzigzag(x)
			} else {
				row[j] = time.Unix(0, unzigzag(x)).UTC()
			}
		case TypeDouble:
			if len(b)-i < 8 {
				return 0
			}
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
			i += 8
		case TypeText:
			n, k := uvarint(b[i:])
			if k == 0 || n > uint64(len(b)-i-k) {
				return 0
			}
			i += k
			row[j] = c.text(j, b[i:i+int(n)])
			i += int(n)
		case TypeBool:
			if i >= len(b) || b[i] > 1 {
				return 0
			}
			row[j] = b[i] == 1
			i++
		default:
			return 0
		}
	}
	return i
}

// readRow fills row a byte at a time, interning its TEXT cells.
func (c *Chunks) readRow(br *bufio.Reader, row Row) error {
	for j := range row {
		v, err := decodeValue(br)
		if err != nil {
			return err
		}
		if s, ok := v.(string); ok {
			v = c.intern(j, s, v)
		}
		row[j] = v
	}
	return nil
}

func decodeSchema(br *bufio.Reader) (*Schema, error) {
	n, err := ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rowset: decode schema: %w", err)
	}
	cols := make([]Column, 0, min(n, maxPrealloc))
	for i := uint64(0); i < n; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		col := Column{Name: name, Type: Type(tb)}
		if col.Type == TypeTable {
			nested, err := decodeSchema(br)
			if err != nil {
				return nil, err
			}
			col.Nested = nested
		}
		cols = append(cols, col)
	}
	return NewSchema(cols...)
}

func decodeValue(br *bufio.Reader) (Value, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("rowset: decode value: %w", err)
	}
	switch Type(tag) {
	case TypeNull:
		return nil, nil
	case TypeLong:
		return ReadVarint(br)
	case TypeDouble:
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
	case TypeText:
		return readString(br)
	case TypeBool:
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b > 1 {
			return nil, fmt.Errorf("rowset: decode: bad bool byte %d", b)
		}
		return b == 1, nil
	case TypeDate:
		n, err := ReadVarint(br)
		if err != nil {
			return nil, err
		}
		return time.Unix(0, n).UTC(), nil
	case TypeTable:
		return DecodeFrom(br)
	}
	return nil, fmt.Errorf("rowset: decode: unknown value tag %d", tag)
}

// ReadUvarint reads a uvarint in its minimal encoding only, so a value has
// one byte form; the wire frames built on this codec read theirs with it too.
func ReadUvarint(br *bufio.Reader) (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if (b == 0 && i > 0) || (i == binary.MaxVarintLen64-1 && b > 1) {
				return 0, errVarint
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, errVarint
}

// ReadVarint reads a zigzag varint in its minimal encoding only.
func ReadVarint(br *bufio.Reader) (int64, error) {
	ux, err := ReadUvarint(br)
	return unzigzag(ux), err
}

func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// uvarint is ReadUvarint over the front of b: it returns the value and the
// bytes it took, or 0 bytes when b holds no whole minimal uvarint (a
// last byte of 0 after the first is not minimal).
func uvarint(b []byte) (uint64, int) {
	x, k := binary.Uvarint(b)
	if k <= 0 || (k > 1 && b[k-1] == 0) {
		return 0, 0
	}
	return x, k
}

func readString(br *bufio.Reader) (string, error) {
	n, err := ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("rowset: decode: string length %d too large", n)
	}
	if n > 1<<16 {
		// Grow with the bytes that arrive rather than trust the length.
		buf, err := io.ReadAll(io.LimitReader(br, int64(n)))
		if err == nil && uint64(len(buf)) < n {
			err = io.ErrUnexpectedEOF
		}
		return string(buf), err
	}
	if n <= uint64(br.Buffered()) {
		// Copy straight out of the buffer: one allocation, not two.
		b, _ := br.Peek(int(n))
		s := string(b)
		br.Discard(int(n)) //nolint:errcheck // n bytes are buffered
		return s, nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
