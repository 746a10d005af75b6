// Package rowset defines the tabular data model shared by every component of
// the provider: typed scalar values, hierarchical (nested-table) values,
// column schemas, and materialized or streaming rowsets.
//
// It is the Go analog of the OLE DB rowset abstraction the paper builds on:
// "any data source that can be viewed as a set of tables". A Value held in a
// column of type Table is itself a *Rowset, which is how the Data Shaping
// Service represents the hierarchical casesets of Section 3.1 of the paper.
package rowset

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies the declared type of a column. The names follow the DMX
// surface syntax used in the paper (LONG, DOUBLE, TEXT, ...) rather than Go
// type names, because they appear verbatim in CREATE statements.
type Type int

const (
	// TypeNull is the type of an untyped NULL and of columns whose type is
	// not yet known (for example, computed columns before inference).
	TypeNull Type = iota
	// TypeLong is a 64-bit signed integer (DMX: LONG).
	TypeLong
	// TypeDouble is a 64-bit float (DMX: DOUBLE).
	TypeDouble
	// TypeText is a Unicode string (DMX: TEXT).
	TypeText
	// TypeBool is a boolean (DMX: BOOL).
	TypeBool
	// TypeDate is a timestamp (DMX: DATE).
	TypeDate
	// TypeTable marks a nested-table column (DMX: TABLE). Values are *Rowset.
	TypeTable
)

var typeNames = map[Type]string{
	TypeNull:   "NULL",
	TypeLong:   "LONG",
	TypeDouble: "DOUBLE",
	TypeText:   "TEXT",
	TypeBool:   "BOOL",
	TypeDate:   "DATE",
	TypeTable:  "TABLE",
}

// String returns the DMX keyword for the type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType maps a DMX type keyword to a Type. It is case-insensitive and
// accepts the aliases used by SQL Server's DMX dialect.
func ParseType(s string) (Type, bool) {
	switch strings.ToUpper(s) {
	case "LONG", "INT", "INTEGER", "BIGINT":
		return TypeLong, true
	case "DOUBLE", "FLOAT", "REAL":
		return TypeDouble, true
	case "TEXT", "STRING", "VARCHAR", "CHAR":
		return TypeText, true
	case "BOOL", "BOOLEAN", "BIT":
		return TypeBool, true
	case "DATE", "DATETIME", "TIME":
		return TypeDate, true
	case "TABLE":
		return TypeTable, true
	}
	return TypeNull, false
}

// Value is a single cell. The dynamic type is one of:
//
//	nil        — SQL NULL
//	int64      — TypeLong
//	float64    — TypeDouble
//	string     — TypeText
//	bool       — TypeBool
//	time.Time  — TypeDate
//	*Rowset    — TypeTable (a nested table)
//
// All producers in this module normalize to exactly these types; Normalize
// converts the common wider set (int, int32, float32, ...) on the way in.
type Value any

// TypeOf reports the Type of v's dynamic type.
func TypeOf(v Value) Type {
	switch v.(type) {
	case nil:
		return TypeNull
	case int64:
		return TypeLong
	case float64:
		return TypeDouble
	case string:
		return TypeText
	case bool:
		return TypeBool
	case time.Time:
		return TypeDate
	case *Rowset:
		return TypeTable
	}
	return TypeNull
}

// Normalize converts v to the canonical dynamic type for its kind. It accepts
// every Go integer and float type plus the canonical types themselves.
// Unsupported dynamic types are returned unchanged.
func Normalize(v Value) Value {
	switch x := v.(type) {
	case nil, int64, float64, string, bool, time.Time, *Rowset:
		return v
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case []byte:
		return string(x)
	}
	return v
}

// IsNull reports whether v is SQL NULL.
func IsNull(v Value) bool { return v == nil }

// Coerce converts v to the given type, returning an error when the conversion
// is not meaningful. NULL coerces to NULL of any type. Numeric conversions
// follow SQL rules: LONG<->DOUBLE freely, TEXT parsed on demand.
func Coerce(v Value, t Type) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TypeLong:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				// Accept "35.0" style literals too.
				f, ferr := strconv.ParseFloat(strings.TrimSpace(x), 64)
				if ferr != nil {
					return nil, fmt.Errorf("rowset: cannot coerce %q to LONG", x)
				}
				return int64(f), nil
			}
			return n, nil
		default:
			// time.Time, *Rowset: no meaningful LONG conversion; fall through
			// to the shared cannot-coerce error below.
		}
	case TypeDouble:
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		case bool:
			if x {
				return float64(1), nil
			}
			return float64(0), nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("rowset: cannot coerce %q to DOUBLE", x)
			}
			return f, nil
		default:
			// time.Time, *Rowset: no meaningful DOUBLE conversion; fall
			// through to the shared cannot-coerce error below.
		}
	case TypeText:
		return FormatValue(v), nil
	case TypeBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case int64:
			return x != 0, nil
		case float64:
			return x != 0, nil
		case string:
			switch strings.ToLower(strings.TrimSpace(x)) {
			case "true", "t", "1", "yes":
				return true, nil
			case "false", "f", "0", "no":
				return false, nil
			}
			return nil, fmt.Errorf("rowset: cannot coerce %q to BOOL", x)
		default:
			// time.Time, *Rowset: no meaningful BOOL conversion; fall through
			// to the shared cannot-coerce error below.
		}
	case TypeDate:
		switch x := v.(type) {
		case time.Time:
			return x, nil
		case string:
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if ts, err := time.Parse(layout, strings.TrimSpace(x)); err == nil {
					return ts, nil
				}
			}
			return nil, fmt.Errorf("rowset: cannot coerce %q to DATE", x)
		case int64:
			return time.Unix(x, 0).UTC(), nil
		default:
			// float64, bool, *Rowset: no meaningful DATE conversion; fall
			// through to the shared cannot-coerce error below.
		}
	case TypeTable:
		if x, ok := v.(*Rowset); ok {
			return x, nil
		}
	case TypeNull:
		return v, nil
	}
	return nil, fmt.Errorf("rowset: cannot coerce %s to %s", TypeOf(v), t)
}

// ToFloat converts numeric and boolean values to float64 for use by mining
// algorithms. The second result is false for NULL and non-numeric values.
func ToFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case time.Time:
		return float64(x.Unix()), true
	default:
		// nil, string, *Rowset: not numeric.
		return 0, false
	}
}

// FormatValue renders v the way the dmsql shell and test fixtures display it:
// NULL for nil, %g for doubles, RFC 3339 for dates, and "#rows=<n>" summary
// for nested tables.
func FormatValue(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	var buf [32]byte
	return string(AppendFormat(buf[:0], v))
}

// AppendFormat appends FormatValue(v) to dst. A caller that only needs the
// text to probe a map (m[string(b)]) formats into a stack buffer and never
// allocates.
func AppendFormat(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "NULL"...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.AppendFloat(dst, x, 'f', 1, 64)
		}
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		return append(dst, x...)
	case bool:
		return strconv.AppendBool(dst, x)
	case time.Time:
		return x.AppendFormat(dst, time.RFC3339)
	case *Rowset:
		return fmt.Appendf(dst, "#rows=%d", x.Len())
	}
	return fmt.Appendf(dst, "%v", v)
}

// Compare orders two scalar values. It returns a negative number when a<b,
// zero when equal, positive when a>b. NULL sorts before every non-NULL value.
// Cross-type numeric comparisons (LONG vs DOUBLE) compare numerically; other
// cross-type comparisons compare by type tag so sorting is total. Nested
// tables compare by length (sorting on a TABLE column is not meaningful but
// must not panic).
func Compare(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	// Same-type fast paths for the three types that dominate sort keys and
	// grouping: no ToFloat round-trip, no TypeOf. Semantics are unchanged
	// (mixed numeric pairs still fall through to the float comparison).
	switch x := a.(type) {
	case int64:
		if y, ok := b.(int64); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		}
	case float64:
		if y, ok := b.(float64); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	default:
		// bool, time.Time, *Rowset, mixed pairs: generic path below.
	}
	af, aNum := ToFloat(a)
	bf, bNum := ToFloat(b)
	if aNum && bNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	ta, tb := TypeOf(a), TypeOf(b)
	if ta != tb {
		return int(ta) - int(tb)
	}
	switch x := a.(type) {
	case string:
		return strings.Compare(x, b.(string))
	case *Rowset:
		return x.Len() - b.(*Rowset).Len()
	default:
		// int64, float64, bool, and time.Time were ordered numerically via
		// ToFloat above; nil was handled first. Same-type leftovers tie.
		return 0
	}
}

// Equal reports whether two scalar values are equal under Compare semantics,
// except that NULL is not equal to NULL (SQL three-valued logic is handled by
// callers; Equal implements the equality used for grouping keys where NULLs
// do group together — use Compare(a,b)==0 for that, which this calls).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// MaxExactLong is the largest magnitude below which every int64 converts to
// float64 exactly (2^53). Key encodes a LONG inside ±MaxExactLong as the
// number it equals, and one outside it under a tag of its own, because there
// float64 would merge distinct integers.
const MaxExactLong = 1 << 53

// Key returns a string usable as a map key that is unique per distinct value
// under Compare semantics. Numeric values of equal magnitude share a key
// regardless of LONG/DOUBLE representation, except that a LONG outside
// ±MaxExactLong keys exactly, apart from every DOUBLE.
func Key(v Value) string { return string(AppendKey(nil, v)) }

// AppendKey appends Key(v)'s bytes to dst and returns the extended slice, so
// hot loops (index probes, grouping) can reuse one scratch buffer and probe
// maps via the compiler's map[string(b)] fast path. A number is a tag byte and
// 8 fixed bytes: 'n' and the float64's KeyBits or, for a LONG outside
// ±MaxExactLong, 'i' and the int64's; a DATE is 't' and its UnixNano. Key
// bytes live only in memory: no file holds them.
func AppendKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, '\x00')
	case int64:
		if x < -MaxExactLong || x > MaxExactLong {
			return binary.BigEndian.AppendUint64(append(dst, 'i'), uint64(x))
		}
		return appendFloatKey(dst, float64(x))
	case string:
		dst = append(dst, 's')
		return append(dst, x...)
	case bool:
		if x {
			return append(dst, 'b', '1')
		}
		return append(dst, 'b', '0')
	case time.Time:
		return binary.BigEndian.AppendUint64(append(dst, 't'), uint64(x.UnixNano()))
	case *Rowset:
		return fmt.Appendf(dst, "T%p", x)
	default:
		if f, ok := ToFloat(v); ok {
			return appendFloatKey(dst, f)
		}
	}
	return fmt.Appendf(dst, "?%v", v)
}

func appendFloatKey(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, 'n'), KeyBits(f))
}

// KeyBits is the number part of f's key: its bits, with every NaN made one
// and -0 kept apart from 0.
func KeyBits(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// AppendKeyPart appends Key(v) to dst as one component of a composite key —
// the key of a whole row, or of a GROUP BY list: four length bytes, then the
// key bytes. The length prefix keeps components from running into each other
// whatever bytes a TEXT value holds, so two value lists share a composite key
// exactly when they are pairwise equal under Key.
func AppendKeyPart(dst []byte, v Value) []byte {
	at := len(dst)
	dst = AppendKey(append(dst, 0, 0, 0, 0), v)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}
