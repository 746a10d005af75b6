package sqlengine

import (
	"strings"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	s := lex.NewScanner(src)
	stmt, err := ParseStatement(s)
	if err != nil {
		return nil, err
	}
	if err := s.ExpectEOF("statement"); err != nil {
		return nil, err
	}
	return stmt, nil
}

// ParseStatement parses one statement from the scanner, leaving trailing
// input in place (the DMX parser embeds SQL SELECTs this way).
func ParseStatement(s *lex.Scanner) (Statement, error) {
	switch {
	case s.Peek().Is("SELECT"):
		return ParseSelect(s)
	case s.Peek().Is("CREATE"):
		return parseCreateTable(s)
	case s.Peek().Is("INSERT"):
		return parseInsert(s)
	case s.Peek().Is("DELETE"):
		return parseDelete(s)
	case s.Peek().Is("UPDATE"):
		return parseUpdate(s)
	case s.Peek().Is("DROP"):
		return parseDropTable(s)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return nil, lex.Errorf(s.Peek(), "expected a SQL statement, found %s", s.Peek())
}

// ParseSelect parses a SELECT statement from the scanner.
func ParseSelect(s *lex.Scanner) (*SelectStmt, error) {
	sel, err := ParseSelectHead(s)
	if err != nil {
		return nil, err
	}
	if s.Accept("FROM") {
		if sel.From, err = ParseFrom(s); err != nil {
			return nil, err
		}
	}
	if err := ParseSelectTail(s, sel); err != nil {
		return nil, err
	}
	return sel, nil
}

// ParseSelectHead parses the part of a SELECT before its FROM clause:
// SELECT [DISTINCT] [TOP n] items. The DMX parser reads its own FROM clause
// between this and ParseSelectTail.
func ParseSelectHead(s *lex.Scanner) (*SelectStmt, error) {
	if err := s.Expect("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Distinct: s.Accept("DISTINCT")}
	if s.Accept("TOP") {
		t, err := s.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind != lex.Number {
			return nil, lex.Errorf(t, "expected number after TOP, found %s", t)
		}
		n, err := t.Int()
		if err != nil || n < 0 {
			return nil, lex.Errorf(t, "invalid TOP count %q", t.Text)
		}
		top := int(n)
		sel.Top = &top
	}
	for {
		item, err := parseSelectItem(s)
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !s.AcceptPunct(",") {
			return sel, nil
		}
	}
}

// ParseSelectTail parses the clauses after FROM into sel: [WHERE cond]
// [GROUP BY exprs] [HAVING cond] [ORDER BY exprs [ASC|DESC]].
func ParseSelectTail(s *lex.Scanner, sel *SelectStmt) error {
	var err error
	if s.Accept("WHERE") {
		if sel.Where, err = ParseExpr(s); err != nil {
			return err
		}
	}
	if s.AcceptSeq("GROUP", "BY") {
		for {
			e, err := ParseExpr(s)
			if err != nil {
				return err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !s.AcceptPunct(",") {
				break
			}
		}
	}
	if s.Accept("HAVING") {
		if sel.Having, err = ParseExpr(s); err != nil {
			return err
		}
	}
	if s.AcceptSeq("ORDER", "BY") {
		for {
			e, err := ParseExpr(s)
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if s.Accept("DESC") {
				item.Desc = true
			} else {
				s.Accept("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !s.AcceptPunct(",") {
				break
			}
		}
	}
	return nil
}

func parseSelectItem(s *lex.Scanner) (SelectItem, error) {
	if s.AcceptPunct("*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident.* — needs lookahead; try expression first and
	// special-case a column ref followed by ".*".
	e, err := ParseExpr(s)
	if err != nil {
		return SelectItem{}, err
	}
	if cr, ok := e.(*ColumnRef); ok && cr.Qualifier == "" && s.Peek().IsPunct(".") {
		// Saw "ident ." — only legal continuation here is "*".
		s.AcceptPunct(".")
		if err := s.ExpectPunct("*"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Star: true, Qualifier: cr.Name}, nil
	}
	item := SelectItem{Expr: e}
	if s.Accept("AS") {
		name, err := s.Name()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = name
	} else if t := s.Peek(); t.Kind == lex.Ident && !IsClauseKeyword(t) {
		// Implicit alias: SELECT a b
		s.Next()
		item.Alias = t.Text
	}
	return item, nil
}

// IsClauseKeyword reports whether an identifier token begins a clause and so
// cannot be an implicit alias.
func IsClauseKeyword(t lex.Token) bool {
	if t.Quoted {
		return false
	}
	switch strings.ToUpper(t.Text) {
	case "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "INNER", "LEFT", "JOIN",
		"ON", "UNION", "APPEND", "RELATE", "AS", "PREDICTION", "NATURAL", "TO", "BY":
		return true
	}
	return false
}

// ParseFrom parses a FROM clause's table list after the FROM keyword: table
// references joined by commas or [INNER|LEFT [OUTER]] JOIN ... ON. The DMX
// parser calls it when a FROM it has looked into names no DMX source.
func ParseFrom(s *lex.Scanner) ([]TableRef, error) {
	var refs []TableRef
	first, err := parseTableRef(s)
	if err != nil {
		return nil, err
	}
	refs = append(refs, first)
	for {
		switch {
		case s.AcceptPunct(","):
			r, err := parseTableRef(s)
			if err != nil {
				return nil, err
			}
			r.Kind = JoinCross
			refs = append(refs, r)
		case s.Peek().Is("JOIN") || s.Peek().Is("INNER") || s.Peek().Is("LEFT"):
			kind := JoinInner
			if s.Accept("LEFT") {
				kind = JoinLeft
				s.Accept("OUTER")
			} else {
				s.Accept("INNER")
			}
			if err := s.Expect("JOIN"); err != nil {
				return nil, err
			}
			r, err := parseTableRef(s)
			if err != nil {
				return nil, err
			}
			r.Kind = kind
			if err := s.Expect("ON"); err != nil {
				return nil, err
			}
			on, err := ParseExpr(s)
			if err != nil {
				return nil, err
			}
			r.On = on
			refs = append(refs, r)
		default:
			return refs, s.Err()
		}
	}
}

func parseTableRef(s *lex.Scanner) (TableRef, error) {
	name, err := s.Name()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if s.Accept("AS") {
		a, err := s.Name()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if t := s.Peek(); t.Kind == lex.Ident && !IsClauseKeyword(t) {
		s.Next()
		ref.Alias = t.Text
	}
	return ref, nil
}

func parseCreateTable(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("CREATE"); err != nil {
		return nil, err
	}
	if s.Accept("VIEW") {
		name, err := s.Name()
		if err != nil {
			return nil, err
		}
		if err := s.Expect("AS"); err != nil {
			return nil, err
		}
		q, err := ParseSelect(s)
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name, Query: q}, nil
	}
	if err := s.Expect("TABLE"); err != nil {
		return nil, err
	}
	name, err := s.Name()
	if err != nil {
		return nil, err
	}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	var cols []rowset.Column
	for {
		cname, err := s.Name()
		if err != nil {
			return nil, err
		}
		tt, err := s.Next()
		if err != nil {
			return nil, err
		}
		if tt.Kind != lex.Ident {
			return nil, lex.Errorf(tt, "expected column type, found %s", tt)
		}
		typ, ok := rowset.ParseType(tt.Text)
		if !ok || typ == rowset.TypeTable {
			return nil, lex.Errorf(tt, "unknown column type %q", tt.Text)
		}
		// Swallow optional length suffix: VARCHAR(80).
		if s.AcceptPunct("(") {
			if _, err := s.Next(); err != nil {
				return nil, err
			}
			if err := s.ExpectPunct(")"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, rowset.Column{Name: cname, Type: typ})
		if s.AcceptPunct(",") {
			continue
		}
		break
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Columns: cols}, nil
}

func parseInsert(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("INSERT"); err != nil {
		return nil, err
	}
	if err := s.Expect("INTO"); err != nil {
		return nil, err
	}
	name, err := s.Name()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if s.AcceptPunct("(") {
		for {
			c, err := s.Name()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !s.AcceptPunct(",") {
				break
			}
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
	}
	if s.Accept("VALUES") {
		for {
			if err := s.ExpectPunct("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := ParseExpr(s)
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !s.AcceptPunct(",") {
					break
				}
			}
			if err := s.ExpectPunct(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !s.AcceptPunct(",") {
				break
			}
		}
		return ins, nil
	}
	if s.Peek().Is("SELECT") {
		q, err := ParseSelect(s)
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return nil, lex.Errorf(s.Peek(), "expected VALUES or SELECT, found %s", s.Peek())
}

func parseDelete(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("DELETE"); err != nil {
		return nil, err
	}
	if err := s.Expect("FROM"); err != nil {
		return nil, err
	}
	name, err := s.Name()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: name}
	if s.Accept("WHERE") {
		e, err := ParseExpr(s)
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func parseUpdate(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("UPDATE"); err != nil {
		return nil, err
	}
	name, err := s.Name()
	if err != nil {
		return nil, err
	}
	if err := s.Expect("SET"); err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: name}
	for {
		col, err := s.Name()
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct("="); err != nil {
			return nil, err
		}
		e, err := ParseExpr(s)
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: col, Value: e})
		if !s.AcceptPunct(",") {
			break
		}
	}
	if s.Accept("WHERE") {
		e, err := ParseExpr(s)
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func parseDropTable(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("DROP"); err != nil {
		return nil, err
	}
	if s.Accept("VIEW") {
		name, err := s.Name()
		if err != nil {
			return nil, err
		}
		return &DropViewStmt{Name: name}, nil
	}
	if err := s.Expect("TABLE"); err != nil {
		return nil, err
	}
	name, err := s.Name()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name}, nil
}

// ParseExpr parses an expression with full operator precedence. Exported for
// reuse by the DMX parser (prediction-join ON clauses, UDF arguments).
func ParseExpr(s *lex.Scanner) (Expr, error) {
	return parseOr(s)
}

func parseOr(s *lex.Scanner) (Expr, error) {
	l, err := parseAnd(s)
	if err != nil {
		return nil, err
	}
	for s.Accept("OR") {
		r, err := parseAnd(s)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func parseAnd(s *lex.Scanner) (Expr, error) {
	l, err := parseNot(s)
	if err != nil {
		return nil, err
	}
	for s.Accept("AND") {
		r, err := parseNot(s)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func parseNot(s *lex.Scanner) (Expr, error) {
	if s.Accept("NOT") {
		x, err := parseNot(s)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return parseComparison(s)
}

func parseComparison(s *lex.Scanner) (Expr, error) {
	l, err := parseAdditive(s)
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if s.Accept("IS") {
		neg := s.Accept("NOT")
		if err := s.Expect("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	}
	neg := false
	if s.Peek().Is("NOT") {
		// Only consume NOT if followed by IN/BETWEEN/LIKE.
		if s.AcceptSeq("NOT", "IN") {
			return parseInList(s, l, true)
		}
		if s.AcceptSeq("NOT", "BETWEEN") {
			return parseBetween(s, l, true)
		}
		if s.AcceptSeq("NOT", "LIKE") {
			r, err := parseAdditive(s)
			if err != nil {
				return nil, err
			}
			return &Unary{Op: "NOT", X: &Binary{Op: OpLike, L: l, R: r}}, nil
		}
	}
	if s.Accept("IN") {
		return parseInList(s, l, neg)
	}
	if s.Accept("BETWEEN") {
		return parseBetween(s, l, neg)
	}
	if s.Accept("LIKE") {
		r, err := parseAdditive(s)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpLike, L: l, R: r}, nil
	}
	ops := []struct {
		text string
		op   BinaryOp
	}{
		{"<=", OpLe}, {">=", OpGe}, {"<>", OpNe}, {"!=", OpNe},
		{"=", OpEq}, {"<", OpLt}, {">", OpGt},
	}
	for _, o := range ops {
		if s.AcceptPunct(o.text) {
			r, err := parseAdditive(s)
			if err != nil {
				return nil, err
			}
			return &Binary{Op: o.op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func parseInList(s *lex.Scanner, l Expr, neg bool) (Expr, error) {
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	if s.Peek().Is("SELECT") {
		sub, err := ParseSelect(s)
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return &In{X: l, Negate: neg, Subquery: &Subquery{Query: sub}}, nil
	}
	var list []Expr
	for {
		e, err := ParseExpr(s)
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !s.AcceptPunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return &In{X: l, List: list, Negate: neg}, nil
}

func parseBetween(s *lex.Scanner, l Expr, neg bool) (Expr, error) {
	lo, err := parseAdditive(s)
	if err != nil {
		return nil, err
	}
	if err := s.Expect("AND"); err != nil {
		return nil, err
	}
	hi, err := parseAdditive(s)
	if err != nil {
		return nil, err
	}
	return &Between{X: l, Lo: lo, Hi: hi, Negate: neg}, nil
}

func parseAdditive(s *lex.Scanner) (Expr, error) {
	l, err := parseMultiplicative(s)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case s.AcceptPunct("+"):
			r, err := parseMultiplicative(s)
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case s.AcceptPunct("-"):
			r, err := parseMultiplicative(s)
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		case s.AcceptPunct("||"):
			r, err := parseMultiplicative(s)
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpConcat, L: l, R: r}
		default:
			return l, s.Err()
		}
	}
}

func parseMultiplicative(s *lex.Scanner) (Expr, error) {
	l, err := parseUnary(s)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case s.AcceptPunct("*"):
			r, err := parseUnary(s)
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case s.AcceptPunct("/"):
			r, err := parseUnary(s)
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		default:
			return l, s.Err()
		}
	}
}

func parseUnary(s *lex.Scanner) (Expr, error) {
	if s.AcceptPunct("-") {
		x, err := parseUnary(s)
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			switch v := lit.Val.(type) {
			case int64:
				return &Literal{Val: -v}, nil
			case float64:
				return &Literal{Val: -v}, nil
			default:
				// Non-numeric literal: negate at evaluation time via Unary.
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	s.AcceptPunct("+")
	return parsePrimary(s)
}

func parsePrimary(s *lex.Scanner) (Expr, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	t := s.Peek()
	switch t.Kind {
	case lex.Number:
		s.Next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := t.Float()
			if err != nil {
				return nil, lex.Errorf(t, "bad number %q", t.Text)
			}
			return &Literal{Val: f}, nil
		}
		n, err := t.Int()
		if err != nil {
			f, ferr := t.Float()
			if ferr != nil {
				return nil, lex.Errorf(t, "bad number %q", t.Text)
			}
			return &Literal{Val: f}, nil
		}
		return &Literal{Val: n}, nil
	case lex.String:
		s.Next()
		return &Literal{Val: t.Text}, nil
	case lex.Punct:
		if t.Text == "?" {
			s.Next()
			return &Param{Ordinal: -1, TokPos: t.Pos, Pos: t.Position()}, nil
		}
		if t.Text == "(" {
			s.Next()
			if s.Peek().Is("SELECT") {
				sub, err := ParseSelect(s)
				if err != nil {
					return nil, err
				}
				if err := s.ExpectPunct(")"); err != nil {
					return nil, err
				}
				return &Subquery{Query: sub}, nil
			}
			e, err := ParseExpr(s)
			if err != nil {
				return nil, err
			}
			if err := s.ExpectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case lex.Ident:
		if !t.Quoted && len(t.Text) > 1 && strings.HasPrefix(t.Text, "@") {
			s.Next()
			return &Param{Ordinal: -1, Name: t.Text[1:], TokPos: t.Pos, Pos: t.Position()}, nil
		}
		if !t.Quoted {
			switch strings.ToUpper(t.Text) {
			case "NULL":
				s.Next()
				return &Literal{Val: nil}, nil
			case "TRUE":
				s.Next()
				return &Literal{Val: true}, nil
			case "FALSE":
				s.Next()
				return &Literal{Val: false}, nil
			}
			if strings.EqualFold(t.Text, "EXISTS") {
				s.Next()
				if err := s.ExpectPunct("("); err != nil {
					return nil, err
				}
				sub, err := ParseSelect(s)
				if err != nil {
					return nil, err
				}
				if err := s.ExpectPunct(")"); err != nil {
					return nil, err
				}
				return &Exists{Query: sub}, nil
			}
			// Clause keywords cannot start an expression; a column that
			// really has such a name must be [bracketed].
			if IsClauseKeyword(t) {
				return nil, lex.Errorf(t, "expected expression, found %s", t)
			}
		}
		s.Next()
		// Function call?
		if !t.Quoted && s.Peek().IsPunct("(") {
			return parseFuncCall(s, t.Text, t.Position())
		}
		// Dotted column reference: a.b (qualifier.name). Deeper paths
		// (a.b.c) fold the prefix into the qualifier.
		name := t.Text
		qual := ""
		for s.Peek().IsPunct(".") {
			// Don't consume ".*" — that belongs to the select-item parser.
			restore := s.Mark()
			s.AcceptPunct(".")
			if s.Peek().IsPunct("*") {
				restore()
				break
			}
			part, err := s.Name()
			if err != nil {
				return nil, err
			}
			if qual == "" {
				qual = name
			} else {
				qual = qual + "." + name
			}
			name = part
		}
		return &ColumnRef{Qualifier: qual, Name: name, Pos: t.Position()}, nil
	}
	return nil, lex.Errorf(t, "expected expression, found %s", t)
}

func parseFuncCall(s *lex.Scanner, name string, namePos lex.Pos) (Expr, error) {
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: strings.ToUpper(name), Pos: namePos}
	if s.AcceptPunct("*") {
		f.Star = true
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if s.AcceptPunct(")") {
		return f, nil
	}
	if s.Accept("DISTINCT") {
		f.Distinct = true
	}
	for {
		e, err := ParseExpr(s)
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !s.AcceptPunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return f, nil
}
