package rowset

import (
	"math"
	"math/bits"
)

// KeyKind is how a KeyTable keys its values, chosen from the declared types
// of the columns they come from. Every kind gives exactly Key equality,
// whatever Go type a value turns out to have: a value the kind does not
// expect converts to the key it equals, or turns the table into a KeyBytes
// one.
type KeyKind uint8

const (
	KeyBytes KeyKind = iota // Key's bytes, or a caller's composite key bytes
	KeyText                 // TEXT = TEXT: the string
	KeyLong                 // LONG = LONG: the int64
	KeyFloat                // other numeric pairs: the float64's KeyBits
)

// KeyKindOf is the kind for keys drawn from a column declared l and compared
// with one declared r (l twice for a GROUP BY column).
func KeyKindOf(l, r Type) KeyKind {
	switch {
	case l == TypeLong && r == TypeLong:
		return KeyLong
	case (l == TypeLong || l == TypeDouble) && (r == TypeLong || r == TypeDouble):
		return KeyFloat
	case l == TypeText && r == TypeText:
		return KeyText
	}
	return KeyBytes
}

// NumKey is v's key under KeyLong or KeyFloat; false means v equals no value
// that has one. A LONG meets a DOUBLE only inside ±MaxExactLong, as under Key.
func (k KeyKind) NumKey(v Value) (uint64, bool) {
	switch x := v.(type) {
	case int64:
		if k == KeyLong {
			return uint64(x), true
		}
		if k == KeyFloat && x >= -MaxExactLong && x <= MaxExactLong {
			return KeyBits(float64(x)), true
		}
	case float64:
		if k == KeyFloat {
			return KeyBits(x), true
		}
		if k == KeyLong && x == math.Trunc(x) && math.Abs(x) <= MaxExactLong && !(x == 0 && math.Signbit(x)) {
			return uint64(int64(x)), true
		}
	default:
		// TEXT, BOOLEAN, DATE, TABLE: no number equals them.
	}
	return 0, false
}

// KeyTable maps keys to dense ids 0, 1, 2, … in first-seen order: two values
// get one id exactly when their Keys are equal, and NULL has an id of its
// own. Numbers (KeyLong, KeyFloat) live in an open-addressing table of
// pointer-free slots, strings and bytes in a map. A value that has no key
// under the kind — a view's LONG column may hold TEXT — turns the table into a
// KeyBytes one that keeps every id. Looking a key up allocates nothing and
// writes nothing, so a table no one adds to any more may be read from many
// goroutines.
type KeyTable struct {
	kind  KeyKind
	n     int32    // ids given out
	null  int32    // NULL's id, or -1
	keys  []uint64 // numbers: each slot's key
	slots []int32  // numbers: each slot's id + 1, 0 when empty
	shift uint     // 64 - log2(len(slots))
	strs  map[string]int32
}

// NewKeyTable returns an empty table of kind with room for about size keys.
func NewKeyTable(kind KeyKind, size int) *KeyTable {
	t := &KeyTable{kind: kind, null: -1}
	if kind == KeyLong || kind == KeyFloat {
		slots := 64
		for slots < 2*size {
			slots *= 2
		}
		t.rehash(slots)
	} else {
		t.strs = make(map[string]int32)
	}
	return t
}

// Len is the number of ids given out.
func (t *KeyTable) Len() int { return int(t.n) }

// Add returns v's id, giving an unseen key the next one.
func (t *KeyTable) Add(v Value) int32 {
	id, _ := t.lookup(v, true)
	return id
}

// Find returns v's id; false when the table holds no key equal to v's.
func (t *KeyTable) Find(v Value) (int32, bool) { return t.lookup(v, false) }

// Bytes returns the id of a KeyBytes table's key b, a composite key the
// caller built (AppendKeyPart); with add, an unseen key gets the next id.
func (t *KeyTable) Bytes(b []byte, add bool) (int32, bool) {
	if id, ok := t.strs[string(b)]; ok || !add {
		return id, ok // map[string(bytes)] lookups do not copy the key
	}
	return t.str(string(b), true)
}

func (t *KeyTable) lookup(v Value, add bool) (int32, bool) {
	if v == nil {
		if t.null < 0 && add {
			t.null, t.n = t.n, t.n+1
		}
		return t.null, t.null >= 0
	}
	switch t.kind {
	case KeyLong, KeyFloat:
		if k, ok := t.kind.NumKey(v); ok {
			return t.num(k, add)
		}
	case KeyText:
		if s, ok := v.(string); ok {
			return t.str(s, add)
		}
	default:
		var buf [64]byte
		return t.Bytes(AppendKey(buf[:0], v), add)
	}
	if !add {
		return 0, false // every key the table holds has one under the kind
	}
	t.toBytes()
	return t.lookup(v, true)
}

func (t *KeyTable) str(s string, add bool) (int32, bool) {
	id, ok := t.strs[s]
	if !ok && add {
		id, ok, t.n = t.n, true, t.n+1
		t.strs[s] = id
	}
	return id, ok
}

// num returns k's id; with add, an unseen k gets the next one, and the
// table doubles before it is half full.
func (t *KeyTable) num(k uint64, add bool) (int32, bool) {
	h := t.probe(k)
	if s := t.slots[h]; s != 0 || !add {
		return s - 1, s != 0
	}
	if 2*int(t.n+1) > len(t.slots) {
		t.rehash(2 * len(t.slots))
		h = t.probe(k)
	}
	t.n++
	t.keys[h], t.slots[h] = k, t.n
	return t.n - 1, true
}

// probe returns k's slot, or the empty one k goes in: linear probing from
// k's Fibonacci hash.
func (t *KeyTable) probe(k uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	h := (k * 0x9e3779b97f4a7c15) >> t.shift
	for t.slots[h] != 0 && t.keys[h] != k {
		h = (h + 1) & mask
	}
	return h
}

// rehash moves the numbers into size (a power of two) slots.
func (t *KeyTable) rehash(size int) {
	keys, slots := t.keys, t.slots
	t.keys, t.slots = make([]uint64, size), make([]int32, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i, s := range slots {
		if s != 0 {
			h := t.probe(keys[i])
			t.keys[h], t.slots[h] = keys[i], s
		}
	}
}

// toBytes rekeys every key the table holds by its Key bytes, keeping ids.
func (t *KeyTable) toBytes() {
	strs := make(map[string]int32, t.n)
	for s, id := range t.strs {
		strs[string(AppendKey(nil, s))] = id
	}
	for i, s := range t.slots {
		if s != 0 {
			strs[string(AppendKey(nil, t.kind.value(t.keys[i])))] = s - 1
		}
	}
	t.kind, t.strs, t.keys, t.slots = KeyBytes, strs, nil, nil
}

// value is a value whose NumKey under k (KeyLong or KeyFloat) is n.
func (k KeyKind) value(n uint64) Value {
	if k == KeyLong {
		return int64(n)
	}
	return math.Float64frombits(n)
}
