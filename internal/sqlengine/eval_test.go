package sqlengine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/rowset"
)

// evalConst evaluates an expression that references no columns.
func evalConst(src string) (rowset.Value, error) {
	return Eval(mustParseExpr(src), rowset.MustSchema(), nil)
}

func evalStr(t *testing.T, src string) rowset.Value {
	t.Helper()
	v, err := evalConst(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestThreeValuedLogic(t *testing.T) {
	// SQL 3VL truth tables, NULL written as NULL.
	cases := []struct {
		src  string
		want rowset.Value
	}{
		{"TRUE AND NULL", nil},
		{"FALSE AND NULL", false},
		{"NULL AND NULL", nil},
		{"TRUE OR NULL", true},
		{"FALSE OR NULL", nil},
		{"NULL OR NULL", nil},
		{"NOT NULL", nil},
		{"NULL = NULL", nil},
		{"NULL <> 1", nil},
		{"NULL + 1", nil},
		{"NULL IS NULL", true},
		{"NULL IS NOT NULL", false},
		{"1 IN (NULL, 2)", nil},  // not found, NULL present → unknown
		{"2 IN (NULL, 2)", true}, // found → true regardless of NULL
		{"NULL IN (1, 2)", nil},
		{"NULL BETWEEN 1 AND 2", nil},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestLogicalShortCircuit(t *testing.T) {
	// The right side errors, but short-circuiting never evaluates it.
	v, err := evalConst("FALSE AND NOSUCHFUNC(1)")
	if err != nil || v != false {
		t.Errorf("FALSE AND <err> = %v, %v", v, err)
	}
	v, err = evalConst("TRUE OR NOSUCHFUNC(1)")
	if err != nil || v != true {
		t.Errorf("TRUE OR <err> = %v, %v", v, err)
	}
	// An IN list stops at its first match; an item before it still fails.
	v, err = evalConst("2 IN (1, 2, NOSUCHFUNC(1))")
	if err != nil || v != true {
		t.Errorf("IN (.., match, <err>) = %v, %v", v, err)
	}
	if _, err = evalConst("2 IN (1, NOSUCHFUNC(1), 2)"); err == nil {
		t.Error("IN (.., <err>, match) must error")
	}
}

func TestLogicalTypeErrors(t *testing.T) {
	// Note: TRUE OR <non-bool> short-circuits before typing the right side,
	// so the error cases below all force right-side evaluation.
	for _, src := range []string{"1 AND TRUE", "FALSE OR 'x'", "TRUE AND 1", "NOT 3"} {
		if _, err := evalConst(src); err == nil {
			t.Errorf("%s must error", src)
		}
	}
}

func TestConcatOperator(t *testing.T) {
	if v := evalStr(t, "'a' || 'b' || 'c'"); v != "abc" {
		t.Errorf("concat = %v", v)
	}
	if v := evalStr(t, "'n=' || 5"); v != "n=5" {
		t.Errorf("mixed concat = %v", v)
	}
}

func TestTruthy(t *testing.T) {
	if ok, err := Truthy(true); !ok || err != nil {
		t.Error("Truthy(true)")
	}
	if ok, err := Truthy(nil); ok || err != nil {
		t.Error("Truthy(NULL)")
	}
	if _, err := Truthy(int64(1)); err == nil {
		t.Error("Truthy(number) must error")
	}
}

var likeCases = []struct {
	s, p string
	want bool
}{
	{"hello", "hello", true},
	{"hello", "HELLO", true}, // case-insensitive
	{"hello", "h%", true},
	{"hello", "%o", true},
	{"hello", "%ell%", true},
	{"hello", "h_llo", true},
	{"hello", "h__lo", true}, // _ _ cover 'e','l'
	{"hello", "h___lo", false},
	{"hello", "", false},
	{"", "%", true},
	{"", "_", false},
	{"abc", "%%%", true},
	{"ab", "a%b%", true},
	{"abcabd", "%ab_", true}, // the last % must give up its first match
	{"aXbXc", "a%b%c", true},
	{"aXbXd", "a%b%c", false},
}

func TestLikeMatchCases(t *testing.T) {
	for _, c := range likeCases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

// Properties of LIKE: s LIKE s, s LIKE '%', s LIKE first-character+'%',
// s LIKE '%'+last-character, over arbitrary text.
func TestLikeProperties(t *testing.T) {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '%' || r == '_' || r == utf8.RuneError {
				return 'x'
			}
			return r
		}, s)
	}
	f := func(raw string) bool {
		s := clean(raw)
		if !likeMatch(s, s) {
			return false
		}
		if !likeMatch(s, "%") {
			return false
		}
		if rs := []rune(s); len(rs) > 1 {
			if !likeMatch(s, string(rs[:1])+"%") {
				return false
			}
			if !likeMatch(s, "%"+string(rs[len(rs)-1:])) {
				return false
			}
			if !likeMatch(s, strings.Repeat("_", len(rs))) || likeMatch(s, strings.Repeat("_", len(rs)+1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// foldsLikeLower reports whether regexp's (?i) — which relates a rune to its
// whole simple-fold orbit — relates r to exactly the runes LIKE's lower-casing
// does. It does not for a handful (ſ and K fold to ASCII letters only one way).
func foldsLikeLower(r rune) bool {
	lower, inOrbit := unicode.ToLower(r), false
	for f := unicode.SimpleFold(r); ; f = unicode.SimpleFold(f) {
		if unicode.ToLower(f) != lower {
			return false
		}
		inOrbit = inOrbit || f == lower
		if f == r {
			return inOrbit
		}
	}
}

// FuzzLike checks the two-pointer matcher against the pattern translated to a
// regular expression (% is .*, _ is ., anything else itself), which the
// standard library matches in linear time.
func FuzzLike(f *testing.F) {
	for _, c := range likeCases {
		f.Add(c.s, c.p)
	}
	f.Add(strings.Repeat("a", 32), strings.Repeat("%a", 12)+"%b")
	f.Add("ÉTÉ à Zürich", "été%z_rich")
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s)*len(p) > 1<<16 {
			t.Skip("the regexp side takes milliseconds per kilobyte of each")
		}
		var re strings.Builder
		re.WriteString("(?is)^")
		for _, r := range p {
			switch r {
			case '%':
				re.WriteString(".*")
			case '_':
				re.WriteString(".")
			default:
				re.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		re.WriteString("$")
		want, err := regexp.Compile(re.String())
		if err != nil {
			t.Skip("pattern is not valid UTF-8")
		}
		for _, r := range s + p {
			if !foldsLikeLower(r) {
				t.Skip("regexp folds this rune differently")
			}
		}
		if got := likeMatch(s, p); got != want.MatchString(s) {
			t.Errorf("likeMatch(%q, %q) = %v, regexp %s says %v", s, p, got, want, !got)
		}
	})
}

// TestLikeManyWildcards: matching is O(len(s)·len(p)). Backtracking over every
// % made this 32-character value against twelve of them take seconds, inside
// one row, where cancellation cannot poll.
func TestLikeManyWildcards(t *testing.T) {
	s := strings.Repeat("a", 32)
	p := strings.Repeat("%a", 12) + "%b"
	start := time.Now()
	if likeMatch(s, p) {
		t.Errorf("%q LIKE %q matched", s, p)
	}
	if !likeMatch(s+"b", p) {
		t.Errorf("%q LIKE %q did not match", s+"b", p)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("LIKE with 12 wildcards took %v, want under 50ms", d)
	}
}

// TestTextFunctionsCountCharacters: _, LEN and SUBSTRING work in characters,
// never splitting a multi-byte one, and SUBSTRING's length cannot overflow.
func TestTextFunctionsCountCharacters(t *testing.T) {
	for _, c := range []struct {
		src  string
		want rowset.Value
	}{
		{"'é' LIKE '_'", true},
		{"'é' LIKE '__'", false},
		{"'naïve' LIKE 'na_ve'", true},
		{"'ÉCOLE' LIKE 'éc%'", true},
		{"'日本語' LIKE '_本_'", true},
		{"LEN('é')", int64(1)},
		{"LEN('日本語')", int64(3)},
		{"LEN('')", int64(0)},
		{"SUBSTRING('héllo', 2, 3)", "éll"},
		{"SUBSTRING('日本語', 2, 1)", "本"},
		{"SUBSTRING('日本語', 3, 5)", "語"},
		{"SUBSTRING('日本語', 4, 1)", ""},
		{"SUBSTRING('hello', 2, 9223372036854775807)", "ello"},
		{"SUBSTRING('hello', 9223372036854775807, 2)", ""},
		{"SUBSTRING('hello', -9223372036854775807 - 1, 2)", "he"},
		{"SUBSTRING('hello', 2, -1)", ""},
	} {
		if got := evalStr(t, c.src); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestResolveColumnQualified(t *testing.T) {
	schema := rowset.MustSchema(
		rowset.Column{Name: "c.Age", Type: rowset.TypeDouble},
		rowset.Column{Name: "s.Age", Type: rowset.TypeDouble},
		rowset.Column{Name: "s.Qty", Type: rowset.TypeDouble},
	)
	if i, err := ResolveColumn(schema, "c", "Age"); err != nil || i != 0 {
		t.Errorf("c.Age = %d, %v", i, err)
	}
	if i, err := ResolveColumn(schema, "", "Qty"); err != nil || i != 2 {
		t.Errorf("bare Qty = %d, %v", i, err)
	}
	if _, err := ResolveColumn(schema, "", "Age"); err == nil {
		t.Error("bare Age must be ambiguous")
	}
	if _, err := ResolveColumn(schema, "x", "Age"); err == nil {
		t.Error("unknown qualifier must fail")
	}
}

// TestResolverHook: the resolver is asked, at compile time, about column
// references the schema cannot resolve and about every function call; its
// closures read per-row state from the frame's Ext; declining falls through to
// the schema's error and to the builtins.
func TestResolverHook(t *testing.T) {
	schema := rowset.MustSchema(rowset.Column{Name: "a", Type: rowset.TypeLong})
	asked := 0
	resolve := func(e Expr) Compiled {
		asked++
		switch x := e.(type) {
		case *ColumnRef:
			if x.Qualifier == "m" && x.Name == "magic" {
				return func(env *Env) (rowset.Value, error) { return env.Ext.(int64), nil }
			}
			if x.Name == "boom" {
				return func(*Env) (rowset.Value, error) { return nil, fmt.Errorf("boom") }
			}
		case *FuncCall:
			if x.Name == "ANSWER" {
				return func(*Env) (rowset.Value, error) { return int64(42), nil }
			}
		}
		return nil
	}
	run := func(src string, env *Env) (rowset.Value, error) {
		return Compile(mustParseExpr(src), schema, resolve)(env)
	}
	fn := Compile(mustParseExpr("m.magic + a"), schema, resolve)
	if asked != 1 {
		t.Errorf("resolver asked %d times at compile time, want 1 (a resolves in the schema)", asked)
	}
	for _, ext := range []int64{99, 7} {
		if v, err := fn(&Env{Row: rowset.Row{int64(1)}, Ext: ext}); err != nil || v != ext+1 {
			t.Errorf("external with Ext=%d = %v, %v", ext, v, err)
		}
	}
	if asked != 1 {
		t.Errorf("resolver asked again at run time (%d calls)", asked)
	}
	env := &Env{Row: rowset.Row{int64(1)}}
	if _, err := run("boom", env); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("external error = %v", err)
	}
	if _, err := run("unknown", env); err == nil || !strings.Contains(err.Error(), `unknown column "unknown"`) {
		t.Errorf("declined column ref = %v, want the schema's error", err)
	}
	if v, err := run("ANSWER() * 2", env); err != nil || v != int64(84) {
		t.Errorf("function hook = %v, %v", v, err)
	}
	// Declined names still reach builtins.
	if v, err := run("UPPER('x')", env); err != nil || v != "X" {
		t.Errorf("builtin fallthrough = %v, %v", v, err)
	}
}

// TestCompileDefersErrors: Compile never fails; what cannot be compiled fails
// on the first evaluation, after the operands the tree-walk evaluated first.
func TestCompileDefersErrors(t *testing.T) {
	for src, want := range map[string]string{
		"nope":            `unknown column "nope"`,
		"NOSUCHFUNC(1)":   "unknown function NOSUCHFUNC",
		"LEN('a', 'b')":   "LEN takes 1 argument(s), got 2",
		"LEN(nope, 'b')":  `unknown column "nope"`, // arguments evaluate before the arity error
		"ROUND(1, 2, 3)":  "ROUND takes 2 argument(s), got 3",
		"NOSUCHFUNC(1/x)": `unknown column "x"`,
		"COUNT(1)":        "aggregate COUNT used outside GROUP BY context",
		"1 IN (SELECT 1)": "unresolved IN subquery",
		"(SELECT 1)":      "cannot evaluate *sqlengine.Subquery",
	} {
		fn := Compile(mustParseExpr(src), rowset.MustSchema(), nil)
		for i := 0; i < 2; i++ {
			if _, err := fn(&Env{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: evaluation %d error = %v, want %q", src, i, err, want)
			}
		}
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	for _, src := range []string{
		"LEN(1)",
		"LEN('a', 'b')",
		"UPPER(3)",
		"SUBSTRING('x', 'a', 1)",
		"ABS('x')",
		"ROUND('x')",
		"IIF(1, 2, 3)", // condition not boolean
	} {
		if _, err := evalConst(src); err == nil {
			t.Errorf("%s must error", src)
		}
	}
	// NULL-propagating scalar functions.
	for _, src := range []string{"LEN(NULL)", "UPPER(NULL)", "ABS(NULL)", "FLOOR(NULL)"} {
		if v := evalStr(t, src); v != nil {
			t.Errorf("%s = %v, want NULL", src, v)
		}
	}
}

func TestSubstringEdges(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"SUBSTRING('hello', 1, 2)", "he"},
		{"SUBSTRING('hello', 4, 10)", "lo"},
		{"SUBSTRING('hello', 99, 2)", ""},
		{"SUBSTRING('hello', 0, 2)", "he"}, // clamped to start
		{"SUBSTRING('hello', 2, 0)", ""},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); got != c.want {
			t.Errorf("%s = %q want %q", c.src, got, c.want)
		}
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	for _, src := range []string{"'a' + 1", "1 - 'b'", "-'x'"} {
		if _, err := evalConst(src); err == nil {
			t.Errorf("%s must error", src)
		}
	}
}

func TestLikeRequiresText(t *testing.T) {
	if _, err := evalConst("1 LIKE 'x'"); err == nil {
		t.Error("LIKE on numbers must error")
	}
	if v := evalStr(t, "NULL LIKE 'x'"); v != nil {
		t.Error("NULL LIKE propagates NULL")
	}
}
