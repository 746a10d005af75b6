package lex

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := kinds(t, "SELECT [Customer ID], Age FROM Customers WHERE Age >= 21.5")
	want := []struct {
		kind Kind
		text string
	}{
		{Ident, "SELECT"}, {Ident, "Customer ID"}, {Punct, ","}, {Ident, "Age"},
		{Ident, "FROM"}, {Ident, "Customers"}, {Ident, "WHERE"}, {Ident, "Age"},
		{Punct, ">="}, {Number, "21.5"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v/%q, want %v/%q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
	if !toks[1].Quoted {
		t.Error("[Customer ID] must be marked Quoted")
	}
}

func TestKeywordMatching(t *testing.T) {
	toks := kinds(t, "select [select]")
	if !toks[0].Is("SELECT") {
		t.Error("bare 'select' must match keyword SELECT")
	}
	if toks[1].Is("SELECT") {
		t.Error("[select] must NOT match keyword SELECT")
	}
}

func TestStringLiterals(t *testing.T) {
	toks := kinds(t, "'hello' 'it''s'")
	if toks[0].Text != "hello" || toks[1].Text != "it's" {
		t.Errorf("strings = %q %q", toks[0].Text, toks[1].Text)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
}

func TestBracketEscapes(t *testing.T) {
	toks := kinds(t, "[a]]b]")
	if toks[0].Text != "a]b" {
		t.Errorf("bracket escape = %q", toks[0].Text)
	}
	if _, err := Tokenize("[oops"); err == nil {
		t.Error("unterminated bracket must error")
	}
}

func TestComments(t *testing.T) {
	src := `SELECT -- sql comment
	a % paper-style comment
	// dmx comment
	FROM t`
	toks := kinds(t, src)
	texts := []string{}
	for _, tok := range toks[:len(toks)-1] {
		texts = append(texts, tok.Text)
	}
	if strings.Join(texts, " ") != "SELECT a FROM t" {
		t.Errorf("comments not skipped: %v", texts)
	}
}

func TestNumbers(t *testing.T) {
	toks := kinds(t, "42 3.25 .5 1e3 2.5E-2")
	vals := []float64{42, 3.25, 0.5, 1000, 0.025}
	for i, w := range vals {
		f, err := toks[i].Float()
		if err != nil || f != w {
			t.Errorf("number %d = %v (%v), want %v", i, f, err, w)
		}
	}
}

func TestLineNumbers(t *testing.T) {
	toks := kinds(t, "a\nb\n\nc")
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 4 {
		t.Errorf("lines = %d %d %d", toks[0].Line, toks[1].Line, toks[2].Line)
	}
}

func TestPunctuation(t *testing.T) {
	toks := kinds(t, "<= >= <> != ( ) { } , . ; = < > * + - /")
	wanted := []string{"<=", ">=", "<>", "!=", "(", ")", "{", "}", ",", ".", ";", "=", "<", ">", "*", "+", "-", "/"}
	for i, w := range wanted {
		if !toks[i].IsPunct(w) {
			t.Errorf("punct %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestUnexpectedChar(t *testing.T) {
	if _, err := Tokenize("a ~ b"); err == nil {
		t.Error("unexpected char must error")
	}
}

func TestScannerExpect(t *testing.T) {
	s := NewScanner("CREATE MINING MODEL [m]")
	if err := s.Expect("CREATE"); err != nil {
		t.Fatal(err)
	}
	if err := s.Expect("MINING"); err != nil {
		t.Fatal(err)
	}
	if err := s.Expect("TABLE"); err == nil {
		t.Error("Expect(TABLE) should fail on MODEL")
	}
}

func TestScannerAcceptSeq(t *testing.T) {
	s := NewScanner("PREDICTION JOIN x")
	if s.AcceptSeq("PREDICTION", "SELECT") {
		t.Fatal("partial AcceptSeq must not consume")
	}
	if !s.AcceptSeq("PREDICTION", "JOIN") {
		t.Fatal("AcceptSeq should match")
	}
	name, err := s.Name()
	if err != nil || name != "x" {
		t.Errorf("after AcceptSeq: %q %v", name, err)
	}
}

func TestScannerName(t *testing.T) {
	s := NewScanner("[Age Prediction] 42")
	n, err := s.Name()
	if err != nil || n != "Age Prediction" {
		t.Fatalf("Name = %q, %v", n, err)
	}
	if _, err := s.Name(); err == nil {
		t.Error("Name on number must fail")
	}
}

func TestSplitStatements(t *testing.T) {
	stmts, err := SplitStatements("SELECT 1; SELECT ';'; -- c;\nSELECT [a;b];;")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT 1", "SELECT ';'", "SELECT [a;b]"}
	if len(stmts) != len(want) {
		t.Fatalf("stmts = %#v", stmts)
	}
	for i, w := range want {
		if stmts[i] != w {
			t.Errorf("stmt %d = %q want %q", i, stmts[i], w)
		}
	}
}

func TestSplitStatementsNoTrailingSemi(t *testing.T) {
	stmts, err := SplitStatements("SELECT 1")
	if err != nil || len(stmts) != 1 || stmts[0] != "SELECT 1" {
		t.Errorf("stmts = %#v err=%v", stmts, err)
	}
}

// Property: tokenizing never panics and either errors or terminates with EOF.
func TestTokenizeRobust(t *testing.T) {
	f := func(s string) bool {
		toks, err := Tokenize(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: identifiers round-trip through bracket quoting.
func TestBracketRoundTrip(t *testing.T) {
	f := func(name string) bool {
		if strings.ContainsAny(name, "\x00") {
			return true
		}
		quoted := "[" + strings.ReplaceAll(name, "]", "]]") + "]"
		toks, err := Tokenize(quoted)
		if err != nil || len(toks) != 2 {
			return false
		}
		return toks[0].Text == name && toks[0].Quoted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLookupFold: the lookup finds what m[strings.ToLower(name)] finds, for
// ASCII, non-ASCII and long names, and allocates nothing for a short ASCII
// name with upper-case letters.
func TestLookupFold(t *testing.T) {
	long := strings.Repeat("Customer", 10)
	m := map[string]int{"customers": 1, "customer id": 2, "ärger": 3, strings.ToLower(long): 4}
	for name, want := range map[string]int{"Customers": 1, "CUSTOMER ID": 2, "ÄRGER": 3, long: 4, "Orders": 0} {
		got, ok := LookupFold(m, name)
		if got != want || ok != (want != 0) {
			t.Errorf("LookupFold(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { LookupFold(m, "Customer ID") }); n != 0 {
		t.Errorf("LookupFold allocates %.1f objects, want 0", n)
	}
}

// TestFoldEqual: FoldEqual agrees with comparing strings.ToLower of both
// sides, ASCII or not, and allocates nothing on ASCII names.
func TestFoldEqual(t *testing.T) {
	names := []string{"", "a", "A", "ab", "Customer ID", "customer id", "CUSTOMER ID", "Customer IDs",
		"Ärger", "ärger", "ÄRGER", "ärgeR", "Σ", "σ", "ς", "K", "\u212a", "k", "İ", "i̇", "x\xffy", "X\xffY"}
	for _, a := range names {
		for _, b := range names {
			if got, want := FoldEqual(a, b), strings.ToLower(a) == strings.ToLower(b); got != want {
				t.Errorf("FoldEqual(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { FoldEqual("Customers.Customer ID", "customers.customer id") }); n != 0 {
		t.Errorf("FoldEqual allocates %.1f objects, want 0", n)
	}
}

// TestFoldHash: names FoldEqual calls equal hash alike, the names here that
// fold apart hash apart, and hashing an ASCII name allocates nothing.
func TestFoldHash(t *testing.T) {
	names := []string{"", "a", "A", "ab", "Customer ID", "customer id", "CUSTOMER ID", "Customer IDs",
		"Ärger", "ärger", "ÄRGER", "ärgeR", "Σ", "σ", "ς", "K", "\u212a", "k", "İ", "i̇", "x\xffy", "X\xffY"}
	for _, a := range names {
		for _, b := range names {
			if got, want := FoldHash(a) == FoldHash(b), FoldEqual(a, b); got != want {
				t.Errorf("FoldHash(%q) == FoldHash(%q) is %v, want %v", a, b, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { FoldHash("Customers.Customer ID") }); n != 0 {
		t.Errorf("FoldHash allocates %.1f objects, want 0", n)
	}
}
