package dmx

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/lex"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// Parse parses one command: a DMX statement, or a SQL statement or standalone
// SHAPE, which come back as *SQL and *Shape. isModel reports whether a name
// refers to a catalogued mining model; it disambiguates DMX INSERT/DELETE/SELECT
// from plain SQL, which shares the surface syntax (the paper's central design
// decision — "maintain the SQL metaphor" — makes the two languages overlap).
func Parse(src string, isModel func(string) bool) (Statement, error) {
	s := lex.NewScanner(src)
	st, err := parseCommand(s, src, isModel)
	if err != nil {
		return nil, err
	}
	if err := s.ExpectEOF("statement"); err != nil {
		return nil, err
	}
	return st, nil
}

// parseCommand parses the command at the scanner: a statement, or one of the
// control statements EXPLAIN, PREPARE, EXECUTE and DEALLOCATE.
func parseCommand(s *lex.Scanner, src string, isModel func(string) bool) (Statement, error) {
	switch t := s.Peek(); {
	case t.Is("EXPLAIN"):
		return parseExplain(s, src, isModel)
	case t.Is("PREPARE"):
		return parsePrepare(s, src, isModel)
	case t.Is("EXECUTE"):
		return parseExecute(s)
	case t.Is("DEALLOCATE"):
		return parseDeallocate(s)
	}
	return parseStatement(s, isModel)
}

// parseExplain parses EXPLAIN [ANALYZE] <statement>, keeping the inner
// statement's text beside it.
func parseExplain(s *lex.Scanner, src string, isModel func(string) bool) (Statement, error) {
	if err := s.Expect("EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := s.Accept("ANALYZE")
	if err := s.Err(); err != nil {
		return nil, err
	}
	if s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "EXPLAIN needs a statement to explain")
	}
	if s.Peek().Is("EXPLAIN") {
		return nil, lex.Errorf(s.Peek(), "EXPLAIN cannot be nested")
	}
	command := strings.TrimSpace(src[s.Peek().Pos:])
	inner, err := parseCommand(s, src, isModel)
	if err != nil {
		return nil, err
	}
	return &Explain{Analyze: analyze, Stmt: inner, Command: command}, nil
}

// parsePrepare parses PREPARE <name> AS <statement>, keeping the inner
// statement's text beside it.
func parsePrepare(s *lex.Scanner, src string, isModel func(string) bool) (Statement, error) {
	if err := s.Expect("PREPARE"); err != nil {
		return nil, err
	}
	nameTok, err := s.NameToken()
	if err != nil {
		return nil, err
	}
	if err := s.Expect("AS"); err != nil {
		return nil, err
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	if s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "PREPARE needs a statement to prepare")
	}
	if t := s.Peek(); t.Is("PREPARE") || t.Is("EXECUTE") || t.Is("DEALLOCATE") || t.Is("EXPLAIN") {
		return nil, lex.Errorf(t, "%s cannot be prepared", strings.ToUpper(t.Text))
	}
	command := strings.TrimSpace(src[s.Peek().Pos:])
	inner, err := parseStatement(s, isModel)
	if err != nil {
		return nil, err
	}
	return &Prepare{Name: nameTok.Text, Stmt: inner, Command: command, NamePos: nameTok.Position()}, nil
}

// parseExecute parses EXECUTE <name> [(arg, ...)]. Each argument is a SQL
// literal — a number (a negated one folds into it), a string, TRUE, FALSE or
// NULL — and anything else is rejected where it starts.
func parseExecute(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("EXECUTE"); err != nil {
		return nil, err
	}
	nameTok, err := s.NameToken()
	if err != nil {
		return nil, err
	}
	ex := &ExecutePrepared{Name: nameTok.Text, NamePos: nameTok.Position()}
	if s.AcceptPunct("(") && !s.AcceptPunct(")") {
		for {
			t := s.Peek()
			e, err := sqlengine.ParseExpr(s)
			if err != nil {
				return nil, err
			}
			lit, ok := e.(*sqlengine.Literal)
			if !ok {
				return nil, lex.Errorf(t, "expected literal argument, found %s", t)
			}
			ex.Args = append(ex.Args, lit.Val)
			if !s.AcceptPunct(",") {
				break
			}
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// parseDeallocate parses DEALLOCATE [PREPARE] <name>.
func parseDeallocate(s *lex.Scanner) (Statement, error) {
	if err := s.Expect("DEALLOCATE"); err != nil {
		return nil, err
	}
	s.Accept("PREPARE")
	name, err := s.Name()
	if err != nil {
		return nil, err
	}
	return &Deallocate{Name: name}, nil
}

// parseStatement parses a DMX statement, or failing that a SHAPE or a SQL
// statement.
func parseStatement(s *lex.Scanner, isModel func(string) bool) (Statement, error) {
	switch {
	case s.AcceptSeq("CREATE", "MINING", "MODEL"):
		return parseCreateModel(s)
	case s.AcceptSeq("DROP", "MINING", "MODEL"):
		name, err := s.Name()
		if err != nil {
			return nil, err
		}
		return &DropModel{Name: name}, nil
	case s.Peek().Is("INSERT"):
		restore := s.Mark()
		s.Accept("INSERT")
		if !s.Accept("INTO") {
			restore()
			return parseSQL(s)
		}
		// Optional MINING MODEL keywords (DMX allows INSERT INTO MINING MODEL m).
		explicit := s.AcceptSeq("MINING", "MODEL")
		nameTok, err := s.NameToken()
		if err != nil {
			return nil, err
		}
		if !explicit && !isModel(nameTok.Text) {
			restore()
			return parseSQL(s) // INSERT INTO a table
		}
		return parseInsertInto(s, nameTok.Text, nameTok.Position())
	case s.Peek().Is("DELETE"):
		restore := s.Mark()
		s.Accept("DELETE")
		if !s.Accept("FROM") {
			restore()
			return parseSQL(s)
		}
		name, err := s.Name()
		if err != nil {
			return nil, err
		}
		if !isModel(name) || !s.AtEOF() {
			restore()
			return parseSQL(s)
		}
		return &DeleteFrom{Model: name}, nil
	case s.Peek().Is("SELECT"):
		return parseSelect(s, isModel)
	case s.Peek().Is("SHAPE"):
		q, err := shape.Parse(s)
		if err != nil {
			return nil, err
		}
		return &Shape{Query: q}, nil
	}
	return parseSQL(s)
}

// parseSQL parses the statement at the scanner as SQL.
func parseSQL(s *lex.Scanner) (Statement, error) {
	st, err := sqlengine.ParseStatement(s)
	if err != nil {
		return nil, err
	}
	return &SQL{Stmt: st}, nil
}

// ---------- CREATE MINING MODEL ----------

func parseCreateModel(s *lex.Scanner) (Statement, error) {
	nameTok, err := s.NameToken()
	if err != nil {
		return nil, err
	}
	name := nameTok.Text
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	cols, err := parseColumnDefs(s, false)
	if err != nil {
		return nil, err
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	if err := s.Expect("USING"); err != nil {
		return nil, err
	}
	algo, err := s.Name()
	if err != nil {
		return nil, err
	}
	def := &core.ModelDef{Name: name, Columns: cols, Algorithm: algo}
	if s.AcceptPunct("(") {
		def.Params = make(map[string]string)
		for {
			pname, err := s.Name()
			if err != nil {
				return nil, err
			}
			if err := s.ExpectPunct("="); err != nil {
				return nil, err
			}
			t, err := s.Next()
			if err != nil {
				return nil, err
			}
			if t.Kind != lex.Number && t.Kind != lex.String && t.Kind != lex.Ident {
				return nil, lex.Errorf(t, "expected parameter value, found %s", t)
			}
			def.Params[strings.ToUpper(pname)] = t.Text
			if !s.AcceptPunct(",") {
				break
			}
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := def.Validate(); err != nil {
		return nil, lex.Errorf(nameTok, "%v", err)
	}
	return &CreateModel{Def: def}, nil
}

func parseColumnDefs(s *lex.Scanner, nested bool) ([]core.ColumnDef, error) {
	var cols []core.ColumnDef
	for {
		col, err := parseColumnDef(s, nested)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !s.AcceptPunct(",") {
			break
		}
	}
	return cols, nil
}

// parseColumnDef parses one column: "<name> <type> <modifiers...>" or
// "<name> TABLE ( <columns> ) [PREDICT|PREDICT_ONLY]".
func parseColumnDef(s *lex.Scanner, nested bool) (core.ColumnDef, error) {
	var col core.ColumnDef
	name, err := s.Name()
	if err != nil {
		return col, err
	}
	col.Name = name

	t, err := s.Next()
	if err != nil {
		return col, err
	}
	if t.Kind != lex.Ident {
		return col, lex.Errorf(t, "expected column type, found %s", t)
	}
	if t.Is("TABLE") {
		if nested {
			return col, lex.Errorf(t, "nested tables cannot contain TABLE columns")
		}
		col.Content = core.ContentTable
		if err := s.ExpectPunct("("); err != nil {
			return col, err
		}
		inner, err := parseColumnDefs(s, true)
		if err != nil {
			return col, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return col, err
		}
		col.Table = inner
		col.DataType = rowset.TypeTable
		if s.Accept("PREDICT_ONLY") {
			col.PredictOnly = true
		} else if s.Accept("PREDICT") {
			col.Predict = true
		}
		return col, nil
	}
	dt, ok := rowset.ParseType(t.Text)
	if !ok || dt == rowset.TypeTable {
		return col, lex.Errorf(t, "unknown data type %q", t.Text)
	}
	col.DataType = dt
	col.Content = core.ContentAttribute
	return col, parseColumnModifiers(s, &col)
}

// parseColumnModifiers consumes KEY / attribute type / distribution /
// qualifier OF / RELATED TO / NOT_NULL / MODEL_EXISTENCE_ONLY / PREDICT
// flags, in any order, matching the paper's loose listing style.
func parseColumnModifiers(s *lex.Scanner, col *core.ColumnDef) error {
	for {
		t := s.Peek()
		if t.Kind != lex.Ident || t.Quoted {
			return s.Err()
		}
		upper := strings.ToUpper(t.Text)
		switch {
		case upper == "KEY":
			s.Next()
			col.Content = core.ContentKey
		case upper == "PREDICT":
			s.Next()
			col.Predict = true
		case upper == "PREDICT_ONLY":
			s.Next()
			col.PredictOnly = true
		case upper == "NOT_NULL":
			s.Next()
			col.NotNull = true
		case upper == "MODEL_EXISTENCE_ONLY":
			s.Next()
			col.ModelExistenceOnly = true
		case upper == "RELATED":
			s.Next()
			if err := s.Expect("TO"); err != nil {
				return err
			}
			target, err := s.Name()
			if err != nil {
				return err
			}
			col.Content = core.ContentRelation
			col.RelatedTo = target
		case upper == "OF":
			// "<QUALIFIER> OF target" — qualifier keyword was consumed in a
			// prior iteration and recorded below; OF alone is an error.
			return lex.Errorf(t, "OF without a qualifier keyword")
		default:
			if q, ok := core.ParseQualifierKind(upper); ok {
				s.Next()
				if err := s.Expect("OF"); err != nil {
					return err
				}
				target, err := s.Name()
				if err != nil {
					return err
				}
				col.Content = core.ContentQualifier
				col.Qualifier = q
				col.QualifierOf = target
				continue
			}
			if d, ok := core.ParseDistribution(upper); ok {
				s.Next()
				col.Distribution = d
				continue
			}
			if at, ok := core.ParseAttributeType(upper); ok {
				s.Next()
				col.AttrType = at
				if at == core.AttrDiscretized && s.AcceptPunct("(") {
					// DISCRETIZED(method, buckets) or DISCRETIZED(buckets).
					t2 := s.Peek()
					if t2.Kind == lex.Ident {
						s.Next()
						col.DiscretizeMethod = strings.ToUpper(t2.Text)
						if s.AcceptPunct(",") {
							nt, err := s.Next()
							if err != nil {
								return err
							}
							n, nerr := nt.Int()
							if nt.Kind != lex.Number || nerr != nil || n < 2 {
								return lex.Errorf(nt, "bad bucket count %s", nt)
							}
							col.DiscretizeBuckets = int(n)
						}
					} else if t2.Kind == lex.Number {
						s.Next()
						n, err := t2.Int()
						if err != nil || n < 2 {
							return lex.Errorf(t2, "bad bucket count %s", t2)
						}
						col.DiscretizeBuckets = int(n)
					}
					if err := s.ExpectPunct(")"); err != nil {
						return err
					}
				}
				continue
			}
			// Unrecognized identifier: belongs to the next clause.
			return nil
		}
	}
}

// ---------- INSERT INTO ----------

func parseInsertInto(s *lex.Scanner, model string, modelPos lex.Pos) (Statement, error) {
	ins := &InsertInto{Model: model, ModelPos: modelPos}
	if s.AcceptPunct("(") {
		bindings, err := parseBindings(s, false)
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		ins.Bindings = bindings
	}
	src, err := parseSource(s)
	if err != nil {
		return nil, err
	}
	ins.Source = src
	return ins, nil
}

func parseBindings(s *lex.Scanner, nested bool) ([]Binding, error) {
	var out []Binding
	for {
		if s.Accept("SKIP") {
			out = append(out, Binding{Skip: true})
		} else {
			nameTok, err := s.NameToken()
			if err != nil {
				return nil, err
			}
			b := Binding{Name: nameTok.Text, Pos: nameTok.Position()}
			if !nested && s.AcceptPunct("(") {
				inner, err := parseBindings(s, true)
				if err != nil {
					return nil, err
				}
				if err := s.ExpectPunct(")"); err != nil {
					return nil, err
				}
				b.Nested = inner
			}
			out = append(out, b)
		}
		if !s.AcceptPunct(",") {
			return out, nil
		}
	}
}

// parseSource parses a SHAPE statement or a SELECT, optionally parenthesized
// or brace-delimited (the paper wraps OPENROWSET-style sources in both ways).
func parseSource(s *lex.Scanner) (Source, error) {
	switch {
	case s.Peek().Is("SHAPE"):
		q, err := shape.Parse(s)
		if err != nil {
			return Source{}, err
		}
		return Source{Shape: q}, nil
	case s.Peek().Is("SELECT"):
		sel, err := sqlengine.ParseSelect(s)
		if err != nil {
			return Source{}, err
		}
		return Source{Select: sel}, nil
	case s.AcceptPunct("("):
		src, err := parseSource(s)
		if err != nil {
			return Source{}, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return Source{}, err
		}
		return src, nil
	case s.AcceptPunct("{"):
		src, err := parseSource(s)
		if err != nil {
			return Source{}, err
		}
		if err := s.ExpectPunct("}"); err != nil {
			return Source{}, err
		}
		return src, nil
	}
	if err := s.Err(); err != nil {
		return Source{}, err
	}
	return Source{}, lex.Errorf(s.Peek(), "expected SHAPE or SELECT source, found %s", s.Peek())
}

// ---------- SELECT (prediction join, provider rowsets) ----------

// parseSelect parses a SELECT. Its clauses are the SQL engine's
// (sqlengine.ParseSelectHead, ParseFrom and ParseSelectTail); what this reads
// is the FROM between them. A FROM that names no DMX source is a SQL SELECT's,
// and parsing carries on from it.
func parseSelect(s *lex.Scanner, isModel func(string) bool) (Statement, error) {
	sel, err := sqlengine.ParseSelectHead(s)
	if err != nil {
		return nil, err
	}
	if !s.Accept("FROM") {
		return selectTail(s, &SQL{Stmt: sel}, sel)
	}
	from := s.Mark()
	nameTok, err := s.NameToken()
	if err != nil {
		return nil, err
	}
	name := nameTok.Text
	switch {
	case strings.EqualFold(name, "$SYSTEM"):
		if err := s.ExpectPunct("."); err != nil {
			return nil, err
		}
		rs, err := s.Name()
		if err != nil {
			return nil, err
		}
		return selectTail(s, &RowsetSelect{Rowset: strings.ToUpper(rs), Select: sel}, sel)
	case s.AcceptPunct("."):
		t := s.Peek()
		what, err := s.Name()
		if err != nil {
			return nil, err
		}
		if !slices.Contains(Accessors, strings.ToUpper(what)) {
			return nil, lex.Errorf(t, "unknown model accessor %q (want CONTENT, COLUMNS, CASES, or PMML)", what)
		}
		return selectTail(s, &RowsetSelect{Model: name, Rowset: strings.ToUpper(what), Select: sel}, sel)
	}

	natural := false
	switch {
	case s.AcceptSeq("NATURAL", "PREDICTION", "JOIN"):
		natural = true
	case s.AcceptSeq("PREDICTION", "JOIN"):
	case isModel(name):
		// Browsing a model's content is SELECT ... FROM <model>.CONTENT.
		return nil, lex.Errorf(nameTok, "SELECT FROM a mining model requires PREDICTION JOIN or .CONTENT")
	default:
		from()
		if sel.From, err = sqlengine.ParseFrom(s); err != nil {
			return nil, err
		}
		return selectTail(s, &SQL{Stmt: sel}, sel)
	}
	ps := &PredictionSelect{Select: sel, Model: name, Natural: natural, ModelPos: nameTok.Position()}
	if ps.Source, err = parseSource(s); err != nil {
		return nil, err
	}
	if s.Accept("AS") {
		if ps.Alias, err = s.Name(); err != nil {
			return nil, err
		}
	} else if t := s.Peek(); t.Kind == lex.Ident && !sqlengine.IsClauseKeyword(t) {
		s.Next() // implicit alias
		ps.Alias = t.Text
	}
	if !natural {
		if err := s.Expect("ON"); err != nil {
			return nil, err
		}
		if ps.On, err = sqlengine.ParseExpr(s); err != nil {
			return nil, err
		}
	}
	return selectTail(s, ps, sel)
}

// selectTail parses sel's clauses after the FROM and returns st, the
// statement that holds sel.
func selectTail(s *lex.Scanner, st Statement, sel *sqlengine.SelectStmt) (Statement, error) {
	if err := sqlengine.ParseSelectTail(s, sel); err != nil {
		return nil, err
	}
	return st, nil
}
