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

const codecVersion = 1

// maxPrealloc caps how many rows or columns a decoder reserves up front
// (1.5 MiB of row headers): the counts come from the input, so a short input
// claiming 2^62 rows must end in a read error, not in one huge allocation.
// Results up to this size still decode into one allocation.
const maxPrealloc = 1 << 16

var errVarint = errors.New("rowset: decode: varint overflows or is not minimal")

// Encode writes the rowset to w in the binary format.
func (rs *Rowset) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := bw.WriteByte(codecVersion); err != nil {
		return err
	}
	if err := encodeSchema(bw, rs.schema); err != nil {
		return err
	}
	writeUvarint(bw, uint64(rs.Len()))
	for _, r := range rs.rows {
		for _, v := range r {
			if err := encodeValue(bw, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode reads a rowset in the binary format.
func Decode(r io.Reader) (*Rowset, error) {
	br := bufio.NewReader(r)
	return decode(br)
}

// DecodeFrom reads a rowset from an existing buffered reader, consuming
// exactly one encoded rowset. Stream protocols (the dmclient/dmserver wire
// format) use it to read several rowsets from one connection without losing
// buffered bytes between messages.
func DecodeFrom(br *bufio.Reader) (*Rowset, error) {
	return decode(br)
}

func decode(br *bufio.Reader) (*Rowset, error) {
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
	// A row of no columns takes no bytes, so nothing in the input bounds
	// how many of them a count can claim.
	if schema.Len() == 0 && n > 0 {
		return nil, fmt.Errorf("rowset: decode: %d rows without columns", n)
	}
	rs := New(schema)
	rs.rows = make([]Row, 0, min(n, maxPrealloc))
	for i := uint64(0); i < n; i++ {
		row := make(Row, schema.Len())
		for j := range row {
			v, err := decodeValue(br)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		rs.rows = append(rs.rows, row)
	}
	return rs, nil
}

func encodeSchema(w *bufio.Writer, s *Schema) error {
	writeUvarint(w, uint64(s.Len()))
	for _, c := range s.Columns {
		writeString(w, c.Name)
		if err := w.WriteByte(byte(c.Type)); err != nil {
			return err
		}
		if c.Type == TypeTable {
			nested := c.Nested
			if nested == nil {
				nested = MustSchema()
			}
			if err := encodeSchema(w, nested); err != nil {
				return err
			}
		}
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

func encodeValue(w *bufio.Writer, v Value) error {
	switch x := v.(type) {
	case nil:
		return w.WriteByte(byte(TypeNull))
	case int64:
		if err := w.WriteByte(byte(TypeLong)); err != nil {
			return err
		}
		writeVarint(w, x)
	case float64:
		if err := w.WriteByte(byte(TypeDouble)); err != nil {
			return err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		_, err := w.Write(buf[:])
		return err
	case string:
		if err := w.WriteByte(byte(TypeText)); err != nil {
			return err
		}
		writeString(w, x)
	case bool:
		if err := w.WriteByte(byte(TypeBool)); err != nil {
			return err
		}
		b := byte(0)
		if x {
			b = 1
		}
		return w.WriteByte(b)
	case time.Time:
		if err := w.WriteByte(byte(TypeDate)); err != nil {
			return err
		}
		writeVarint(w, x.UnixNano())
	case *Rowset:
		if err := w.WriteByte(byte(TypeTable)); err != nil {
			return err
		}
		if err := w.WriteByte(codecVersion); err != nil {
			return err
		}
		if err := encodeSchema(w, x.schema); err != nil {
			return err
		}
		writeUvarint(w, uint64(x.Len()))
		for _, r := range x.rows {
			for _, nv := range r {
				if err := encodeValue(w, nv); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("rowset: encode: unsupported value type %T", v)
	}
	return nil
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
		return decode(br)
	}
	return nil, fmt.Errorf("rowset: decode: unknown value tag %d", tag)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio.Writer errors surface at Flush
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s) //nolint:errcheck
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
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
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
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
