package lex

import "strings"

// Scanner is a token stream with one-token lookahead and parser conveniences.
// Both the SQL and DMX recursive-descent parsers are written against it.
type Scanner struct {
	lx     *Lexer
	cur    Token
	err    error
	primed bool
}

// NewScanner tokenizes src lazily.
func NewScanner(src string) *Scanner {
	return &Scanner{lx: New(src)}
}

func (s *Scanner) prime() {
	if !s.primed {
		s.cur, s.err = s.lx.Next()
		s.primed = true
	}
}

// Peek returns the current token without consuming it.
func (s *Scanner) Peek() Token {
	s.prime()
	return s.cur
}

// Err returns the pending lexical error, if any.
func (s *Scanner) Err() error {
	s.prime()
	return s.err
}

// Next consumes and returns the current token.
func (s *Scanner) Next() (Token, error) {
	s.prime()
	t, err := s.cur, s.err
	if err == nil && t.Kind != EOF {
		s.cur, s.err = s.lx.Next()
	}
	return t, err
}

// Accept consumes the current token if it is the given keyword.
func (s *Scanner) Accept(keyword string) bool {
	if s.Peek().Is(keyword) && s.Err() == nil {
		s.Next()
		return true
	}
	return false
}

// AcceptSeq consumes a sequence of keywords only if all match in order.
func (s *Scanner) AcceptSeq(keywords ...string) bool {
	if !s.Peek().Is(keywords[0]) {
		return false // the common miss needs no restore point
	}
	restore := s.Mark()
	for _, k := range keywords {
		if !s.Accept(k) {
			restore()
			return false
		}
	}
	return true
}

// Mark returns a restore point: calling the returned function rewinds the
// scanner (including lexer state) to the position at the Mark call. Used for
// bounded lookahead in the parsers.
func (s *Scanner) Mark() func() {
	save := *s
	saveLx := *s.lx
	return func() {
		*s = save
		s.lx = &saveLx
	}
}

// AcceptPunct consumes the current token if it is the given punctuation.
func (s *Scanner) AcceptPunct(p string) bool {
	if s.Peek().IsPunct(p) && s.Err() == nil {
		s.Next()
		return true
	}
	return false
}

// Expect consumes a keyword or returns a descriptive error.
func (s *Scanner) Expect(keyword string) error {
	if s.Err() != nil {
		return s.Err()
	}
	if !s.Accept(keyword) {
		return Errorf(s.Peek(), "expected %s, found %s", strings.ToUpper(keyword), s.Peek())
	}
	return nil
}

// ExpectPunct consumes punctuation or returns a descriptive error.
func (s *Scanner) ExpectPunct(p string) error {
	if s.Err() != nil {
		return s.Err()
	}
	if !s.AcceptPunct(p) {
		return Errorf(s.Peek(), "expected %q, found %s", p, s.Peek())
	}
	return nil
}

// Name consumes an identifier (bare or bracketed) and returns its text.
// Dotted names are handled by callers; Name consumes a single component.
func (s *Scanner) Name() (string, error) {
	t, err := s.NameToken()
	return t.Text, err
}

// NameToken is Name but returns the whole token, for callers that record
// source positions alongside the identifier text.
func (s *Scanner) NameToken() (Token, error) {
	if s.Err() != nil {
		return Token{}, s.Err()
	}
	t := s.Peek()
	if t.Kind != Ident {
		return Token{}, Errorf(t, "expected identifier, found %s", t)
	}
	s.Next()
	return t, nil
}

// ExpectEOF returns the pending lexical error, or an error at the current
// token unless all input has been consumed; after names what was parsed.
func (s *Scanner) ExpectEOF(after string) error {
	if s.Err() != nil {
		return s.Err()
	}
	if t := s.Peek(); t.Kind != EOF {
		return Errorf(t, "unexpected input after %s: %s", after, t)
	}
	return nil
}

// AtEOF reports whether all input has been consumed.
func (s *Scanner) AtEOF() bool {
	return s.Err() == nil && s.Peek().Kind == EOF
}

// Tokenize fully tokenizes src; used by tests and by statement splitting.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

// SplitStatements splits src on top-level semicolons, respecting strings,
// bracketed identifiers, and comments. Empty statements are dropped. Used by
// the shell and the server to execute multi-statement scripts.
func SplitStatements(src string) ([]string, error) {
	lx := New(src)
	var stmts []string
	start := -1
	lastEnd := 0
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			if start >= 0 {
				s := strings.TrimSpace(src[start:])
				if s != "" {
					stmts = append(stmts, s)
				}
			}
			return stmts, nil
		}
		if t.IsPunct(";") {
			if start >= 0 {
				s := strings.TrimSpace(src[start:lastEnd])
				if s != "" {
					stmts = append(stmts, s)
				}
			}
			start = -1
			continue
		}
		if start < 0 {
			start = t.Pos
		}
		lastEnd = lx.pos
	}
}
