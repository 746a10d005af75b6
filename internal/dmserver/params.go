package dmserver

// Request verbs and the args codec. Arguments travel in a tagged binary
// codec, never as spliced command text, so quote-bearing strings round-trip
// exactly:
//
//	args := count:uvarint (tag:byte value)*
//	  tag 0: NULL    (no value bytes)
//	  tag 1: BOOL    value = 1 byte, 0 or 1
//	  tag 2: LONG    value = zigzag varint
//	  tag 3: DOUBLE  value = 8 bytes, IEEE 754 big-endian
//	  tag 4: TEXT    value = len:uvarint bytes (UTF-8)
//	  tag 5: DATE    value = len:uvarint bytes (RFC 3339 with nanoseconds)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/rowset"
)

// Request verbs.
const (
	// VerbExec runs one command.
	VerbExec = 1
	// VerbExecutePrepared runs a previously prepared statement by name with
	// arguments bound to its placeholders.
	VerbExecutePrepared = 2
	// VerbExecParams runs one command with positional arguments bound to its
	// placeholders, without naming a prepared statement.
	VerbExecParams = 3
)

// Argument value tags.
const (
	argNull   = 0
	argBool   = 1
	argLong   = 2
	argDouble = 3
	argText   = 4
	argDate   = 5
)

// MaxArgs bounds the argument count of one request so a broken client cannot
// make the server allocate unboundedly.
const MaxArgs = 1 << 16

// writeArgs encodes an argument vector in the tagged binary codec.
func writeArgs(bw *bufio.Writer, args []rowset.Value) error {
	writeUvarint(bw, uint64(len(args)))
	for _, a := range args {
		switch v := rowset.Normalize(a).(type) {
		case nil:
			bw.WriteByte(argNull) //nolint:errcheck // bufio.Writer errors surface at Flush
		case bool:
			b := byte(0)
			if v {
				b = 1
			}
			bw.Write([]byte{argBool, b}) //nolint:errcheck
		case int64:
			var buf [1 + binary.MaxVarintLen64]byte
			buf[0] = argLong
			bw.Write(buf[:1+binary.PutVarint(buf[1:], v)]) //nolint:errcheck
		case float64:
			var buf [9]byte
			buf[0] = argDouble
			binary.BigEndian.PutUint64(buf[1:], math.Float64bits(v))
			bw.Write(buf[:]) //nolint:errcheck
		case string:
			bw.WriteByte(argText) //nolint:errcheck
			writeFrame(bw, v)
		case time.Time:
			bw.WriteByte(argDate) //nolint:errcheck
			writeFrame(bw, v.Format(time.RFC3339Nano))
		default:
			return fmt.Errorf("dmserver: unsupported argument type %T", a)
		}
	}
	return nil
}

// readArgs decodes an argument vector written by writeArgs.
func readArgs(br *bufio.Reader) ([]rowset.Value, error) {
	count, err := rowset.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if count > MaxArgs {
		return nil, fmt.Errorf("dmserver: argument count %d exceeds limit", count)
	}
	args := make([]rowset.Value, count)
	for i := range args {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch tag {
		case argNull:
			args[i] = nil
		case argBool:
			b, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if b > 1 {
				return nil, fmt.Errorf("dmserver: bad bool argument byte %d", b)
			}
			args[i] = b == 1
		case argLong:
			v, err := rowset.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			args[i] = v
		case argDouble:
			var buf [8]byte
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			args[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[:]))
		case argText:
			s, err := readFrame(br)
			if err != nil {
				return nil, err
			}
			args[i] = s
		case argDate:
			s, err := readFrame(br)
			if err != nil {
				return nil, err
			}
			ts, err := time.Parse(time.RFC3339Nano, s)
			if err != nil {
				return nil, fmt.Errorf("dmserver: bad date argument: %w", err)
			}
			if ts.Format(time.RFC3339Nano) != s {
				return nil, fmt.Errorf("dmserver: date argument %q is not in canonical form", s)
			}
			args[i] = ts
		default:
			return nil, fmt.Errorf("dmserver: bad argument tag %d", tag)
		}
	}
	return args, nil
}
