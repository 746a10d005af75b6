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
	bw.Write(binary.AppendUvarint(room(bw, binary.MaxVarintLen64), uint64(len(args)))) //nolint:errcheck // bufio.Writer errors surface at Flush
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
			bw.Write(binary.AppendVarint(append(room(bw, 1+binary.MaxVarintLen64), argLong), v)) //nolint:errcheck
		case float64:
			bw.Write(binary.BigEndian.AppendUint64(append(room(bw, 9), argDouble), math.Float64bits(v))) //nolint:errcheck
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
		case argNull: // args[i] is already nil
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
			b, err := br.Peek(8)
			if err != nil {
				if err == io.EOF && len(b) > 0 {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			br.Discard(8) //nolint:errcheck // 8 bytes are buffered
			args[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
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
