package lex

import (
	"strings"
	"unicode/utf8"
)

// LookupFold returns m[strings.ToLower(name)]: the lookup of a
// case-insensitive name (a table, column, model or handle) in a map keyed by
// lower-cased names. An ASCII name of up to 64 bytes is lower-cased into a
// stack buffer and the map is indexed with the converted bytes, which Go
// does not copy, so the lookup allocates nothing.
func LookupFold[V any](m map[string]V, name string) (V, bool) {
	var buf [64]byte
	n := len(name) // len(buf)+1 once the name needs strings.ToLower
	for j := 0; j < n && n <= len(buf); j++ {
		c := name[j]
		if c >= utf8.RuneSelf {
			n = len(buf) + 1
		}
		buf[j] = lowerASCII(c)
	}
	if n <= len(buf) {
		v, ok := m[string(buf[:n])]
		return v, ok
	}
	v, ok := m[strings.ToLower(name)]
	return v, ok
}

// FoldEqual reports whether strings.ToLower(a) == strings.ToLower(b): the
// equality of two case-insensitive names. It allocates only past the first
// non-ASCII byte, where it hands the rest to strings.ToLower.
func FoldEqual(a, b string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			return strings.ToLower(a[i:]) == strings.ToLower(b[i:])
		}
		if lowerASCII(ca) != lowerASCII(cb) {
			return false
		}
	}
	return len(a) == len(b)
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// FoldHash returns a 64-bit FNV-1a hash of strings.ToLower(name), so names
// FoldEqual calls equal hash alike. It allocates only past the first
// non-ASCII byte, where it hashes strings.ToLower of the rest.
func FoldHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			rest := strings.ToLower(name[i:])
			for j := 0; j < len(rest); j++ {
				h = (h ^ uint64(rest[j])) * 1099511628211
			}
			return h
		}
		h = (h ^ uint64(lowerASCII(c))) * 1099511628211
	}
	return h
}
