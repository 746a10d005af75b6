package rowset

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"
)

// decimalKey is the earlier Key encoder, which rendered numbers and dates as
// decimal text. It is kept here as the oracle for what key equality means:
// the fixed-width encoding must make exactly the same values equal.
func decimalKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return "\x00"
	case int64:
		if x < -MaxExactLong || x > MaxExactLong {
			return "i" + strconv.FormatInt(x, 10)
		}
		return "n" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case string:
		return "s" + x
	case bool:
		if x {
			return "b1"
		}
		return "b0"
	case time.Time:
		return "t" + strconv.FormatInt(x.UnixNano(), 10)
	case *Rowset:
		return fmt.Sprintf("T%p", x)
	default:
		if f, ok := ToFloat(v); ok {
			return "n" + strconv.FormatFloat(f, 'g', -1, 64)
		}
	}
	return fmt.Sprintf("?%v", v)
}

// checkKeyEquality fails t unless a and b share a Key exactly when they
// shared a decimalKey, and a KeyTable of every kind gives them one id exactly
// when they share a Key — whether b is added after a or only looked up.
func checkKeyEquality(t *testing.T, a, b Value) {
	t.Helper()
	same := Key(a) == Key(b)
	if want := decimalKey(a) == decimalKey(b); same != want {
		t.Errorf("Key(%#v) == Key(%#v) is %v; the decimal encoding said %v", a, b, same, want)
	}
	for _, kind := range []KeyKind{KeyBytes, KeyText, KeyLong, KeyFloat} {
		tab := NewKeyTable(kind, 0)
		ia := tab.Add(a)
		if ib, ok := tab.Find(b); ok != same || (ok && ib != ia) {
			t.Errorf("kind %d: Find(%#v) after Add(%#v) = %d, %v; Keys equal: %v", kind, b, a, ib, ok, same)
		}
		if ib := tab.Add(b); (ib == ia) != same {
			t.Errorf("kind %d: Add(%#v) = %d after Add(%#v) = %d; Keys equal: %v", kind, b, ib, a, ia, same)
		}
		if got, ok := tab.Find(a); !ok || got != ia {
			t.Errorf("kind %d: Find(%#v) = %d, %v after adding %#v; want %d", kind, a, got, ok, b, ia)
		}
	}
}

// TestKeyTableIDs: ids are dense and in first-seen order, survive the table's
// growth and its turn to bytes when a value has no key under its kind.
func TestKeyTableIDs(t *testing.T) {
	for _, kind := range []KeyKind{KeyBytes, KeyText, KeyLong, KeyFloat} {
		tab := NewKeyTable(kind, 0)
		for i := 0; i < 3000; i++ {
			if id := tab.Add(int64(i)); id != int32(i) {
				t.Fatalf("kind %d: Add(%d) = %d, want %d", kind, i, id, i)
			}
		}
		if id := tab.Add(nil); id != 3000 {
			t.Fatalf("kind %d: NULL got id %d, want 3000", kind, id)
		}
		if id := tab.Add("x"); id != 3001 || tab.Len() != 3002 {
			t.Fatalf("kind %d: Add(\"x\") = %d with %d ids, want 3001 of 3002", kind, id, tab.Len())
		}
		for i := 0; i < 3000; i += 7 {
			if id, ok := tab.Find(float64(i)); !ok || id != int32(i) {
				t.Errorf("kind %d: Find(%d.0) = %d, %v after the turn to bytes", kind, i, id, ok)
			}
		}
		if id, ok := tab.Find(nil); !ok || id != 3000 {
			t.Errorf("kind %d: Find(NULL) = %d, %v; want 3000", kind, id, ok)
		}
	}
}

func TestKeyEqualityUnchanged(t *testing.T) {
	const two53 = int64(MaxExactLong)
	instant := time.Date(2024, 5, 1, 12, 0, 0, 123, time.UTC)
	corpus := []Value{
		int64(0), math.Copysign(0, -1), int64(1), float64(1),
		two53, -two53, two53 + 1, -two53 - 1,
		float64(two53), float64(-two53), float64(two53 + 1), float64(-two53 - 1),
		int64(math.MinInt64), int64(math.MaxInt64),
		math.NaN(), math.Float64frombits(0x7ff8dead00000001),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		instant, instant.In(time.FixedZone("UTC+5", 5*3600)),
		"1", "n1",
		true, nil, "",
	}
	for _, a := range corpus {
		for _, b := range corpus {
			checkKeyEquality(t, a, b)
		}
	}
}

// keyValue decodes one value of every scalar kind from fuzz input.
func keyValue(kind byte, bits uint64, text string) Value {
	switch kind % 6 {
	case 0:
		return nil
	case 1:
		return int64(bits)
	case 2:
		return math.Float64frombits(bits)
	case 3:
		return text
	case 4:
		return bits&1 == 1
	}
	return time.Unix(0, int64(bits)).In(time.FixedZone("z", int(kind)*60))
}

func FuzzKeyEquality(f *testing.F) {
	f.Add(byte(1), uint64(3), "", byte(2), math.Float64bits(3), "")
	f.Add(byte(2), uint64(0), "", byte(2), math.Float64bits(math.Copysign(0, -1)), "")
	f.Add(byte(2), uint64(0x7ff8000000000001), "", byte(2), uint64(0xfff0000000000002), "")
	f.Add(byte(1), uint64(1<<53+1), "", byte(2), math.Float64bits(1<<53), "")
	f.Add(byte(5), uint64(42), "", byte(11), uint64(42), "")
	f.Add(byte(3), uint64(0), "n1", byte(1), uint64(1), "")
	f.Add(byte(3), uint64(0), "n"+string(binary.BigEndian.AppendUint64(nil, math.Float64bits(1))), byte(1), uint64(1), "")
	f.Fuzz(func(t *testing.T, ka byte, ba uint64, ta string, kb byte, bb uint64, tb string) {
		checkKeyEquality(t, keyValue(ka, ba, ta), keyValue(kb, bb, tb))
	})
}
