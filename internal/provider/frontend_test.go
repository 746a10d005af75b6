package provider

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// TestOneFrontEnd guards the one-parse rule: what a command is gets decided
// once, by dmx.Parse, and everything downstream switches on the parsed
// statement. No provider file scans, tokenizes or parses command text any
// other way, and dmx.Parse itself is called from one place.
func TestOneFrontEnd(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{
		"lex.NewScanner": true, "lex.Tokenize": true, "sqlengine.Parse": true,
		"shape.ParseString": true, "shape.ExecuteStringContext": true,
	}
	var parses []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				name := id.Name + "." + sel.Sel.Name
				if banned[name] {
					t.Errorf("%s: %s — the provider reads command text only through dmx.Parse", fset.Position(sel.Pos()), name)
				}
				if name == "dmx.Parse" {
					parses = append(parses, fset.Position(sel.Pos()).String())
				}
				return true
			})
		}
	}
	if len(parses) != 1 {
		t.Errorf("dmx.Parse called at %v, want exactly one call site", parses)
	}
}

// entryPoints are the four ways a client runs a command, each on a session of
// its own: the command itself, PREPARE and EXECUTE statements, the
// prepared-statement API, and EXPLAIN ANALYZE, whose result is the measured
// span tree.
var entryPoints = []struct {
	name string
	run  func(ctx context.Context, s *Session, cmd string) (*rowset.Rowset, error)
}{
	{"Execute", func(ctx context.Context, s *Session, cmd string) (*rowset.Rowset, error) {
		return s.Execute(ctx, cmd)
	}},
	{"PREPARE/EXECUTE", func(ctx context.Context, s *Session, cmd string) (*rowset.Rowset, error) {
		if _, err := s.Execute(ctx, "PREPARE p AS "+cmd); err != nil {
			return nil, err
		}
		return s.Execute(ctx, "EXECUTE p")
	}},
	{"Prepare/ExecutePrepared", func(ctx context.Context, s *Session, cmd string) (*rowset.Rowset, error) {
		if _, err := s.Prepare(ctx, "p", cmd); err != nil {
			return nil, err
		}
		return s.ExecutePrepared(ctx, "p", nil)
	}},
	{"EXPLAIN ANALYZE", func(ctx context.Context, s *Session, cmd string) (*rowset.Rowset, error) {
		return s.Execute(ctx, "EXPLAIN ANALYZE "+cmd)
	}},
}

// TestEntryPointsAgree runs each statement kind through each entry point: all
// four give the same result, or the same error.
func TestEntryPointsAgree(t *testing.T) {
	const (
		sqlSelect = "SELECT Gender, COUNT(*) AS N FROM Customers WHERE Age > 30 GROUP BY Gender ORDER BY Gender"
		sqlInsert = "INSERT INTO Sales VALUES (1, 'Gum', 2, 'Food')"
		shapeCmd  = `SHAPE {SELECT [Customer ID], Gender FROM Customers ORDER BY [Customer ID]}
			APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID} RELATE [Customer ID] TO CustID) AS Purchases`
		systemQuery = "SELECT MODEL_NAME, SERVICE_NAME, IS_POPULATED FROM $SYSTEM.MINING_MODELS"
	)
	for _, tc := range []struct {
		name, cmd string
		wantErr   string // the one error every entry point reports
	}{
		{name: "SQL SELECT", cmd: sqlSelect},
		{name: "SQL INSERT", cmd: sqlInsert},
		{name: "SHAPE", cmd: shapeCmd},
		{name: "PREDICTION JOIN", cmd: predictAgeQuery},
		{name: "INSERT INTO model", cmd: insertAgeModel},
		{name: "$SYSTEM rowset", cmd: systemQuery},
		{name: "unbound parameter", cmd: "SELECT Gender FROM Customers WHERE Age > ?",
			wantErr: "statement has 1 parameter(s), got 0 argument(s)"},
		{name: "SHAPE parameter", cmd: "SHAPE {SELECT Gender FROM Customers WHERE Age > ?}",
			wantErr: "parameters are not supported inside SHAPE"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := MustNew()
			setupCustomerData(t, p, 40)
			mustExec(t, p, createAgeModel)
			mustExec(t, p, insertAgeModel)
			ctx := context.Background()
			var want *rowset.Rowset
			var wantErr error
			for _, ep := range entryPoints {
				s := p.NewSession()
				rs, err := ep.run(ctx, s, tc.cmd)
				s.Close()
				switch {
				case tc.wantErr != "":
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("%s: err = %v, want %q", ep.name, err, tc.wantErr)
					}
					if wantErr != nil && err.Error() != wantErr.Error() {
						t.Errorf("%s: err = %v, Execute gave %v", ep.name, err, wantErr)
					}
					wantErr = err
				case err != nil:
					t.Fatalf("%s: %v", ep.name, err)
				case want == nil:
					want = rs
				case ep.name == "EXPLAIN ANALYZE":
					if got := decodeExplain(t, rs)[0].rows; got != int64(want.Len()) {
						t.Errorf("%s: rows out = %v, Execute returned %d rows", ep.name, got, want.Len())
					}
				case !bytes.Equal(encoded(t, rs), encoded(t, want)):
					t.Errorf("%s: result\n%v\ndiffers from Execute's\n%v", ep.name, rs.Rows(), want.Rows())
				}
			}
		})
	}
}

// TestMalformedShapeFailsAtPrepare: a SHAPE is parsed whole when it is
// prepared, so a malformed one is rejected by PREPARE, at its position, and
// never registered.
func TestMalformedShapeFailsAtPrepare(t *testing.T) {
	p := MustNew()
	setupCustomerData(t, p, 5)
	ctx := context.Background()
	for _, cmd := range []string{
		"SHAPE {SELECT Gender FROM Customers} APPEND garbage",
		"SHAPE {SELECT 'unterminated FROM Customers}",
	} {
		s := p.NewSession()
		_, errText := s.Execute(ctx, "PREPARE p AS "+cmd)
		_, errAPI := s.Prepare(ctx, "q", cmd)
		for _, err := range []error{errText, errAPI} {
			var le *lex.Error
			if !errors.As(err, &le) || le.Line < 1 || le.Col < 1 {
				t.Errorf("PREPARE of %q: err = %T %v, want a positioned *lex.Error", cmd, err, err)
			}
		}
		if names := s.PreparedNames(); len(names) != 0 {
			t.Errorf("PREPARE of %q registered %v", cmd, names)
		}
		s.Close()
	}
}
