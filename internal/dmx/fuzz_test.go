package dmx

import (
	"errors"
	"testing"

	"repro/internal/lex"
	"repro/internal/workload"
)

// fuzzSeeds are the statements the parser tests hold, the clauses a SELECT
// over a provider rowset or a PREDICTION JOIN borrows from the SQL grammar, the
// SQL and SHAPE commands Parse hands to those parsers, and the EXPLAIN and
// PREPARE forms of each.
var fuzzSeeds = []string{
	paperCreate, paperInsert, paperPrediction,
	`CREATE MINING MODEL m ([A] TEXT DISCRETE) USING [x]`,
	`CREATE MINING MODEL m ([ID] LONG KEY, [A] DOUBLE DISCRETIZED(EQUAL_AREAS, 4) PREDICT) USING x (P = 1, Q = 'a')`,
	`CREATE MINING MODEL m ([ID] LONG KEY, [P] DOUBLE PROBABILITY OF [ID], [A] TEXT RELATED TO [ID]) USING x`,
	`INSERT INTO [m] ([ID], [T](SKIP, [X])) SELECT a, b FROM t`,
	`INSERT INTO MINING MODEL [m] ([a]) {SELECT a FROM t}`,
	`INSERT INTO [m] ([a]) (SHAPE {SELECT a FROM t})`,
	`SELECT Predict([Age]), PredictProbability([Age]), Cluster()
		FROM [m] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t WHERE PredictProbability([Age]) > 0.5`,
	`SELECT DISTINCT TOP 3 t.id FROM [m] NATURAL PREDICTION JOIN (SELECT 1 AS id) t ORDER BY t.id DESC`,
	`SELECT Predict([A]) FROM [m] PREDICTION JOIN (SELECT 1 AS A) AS t ON [m].A = t.A WHERE t.A = ? GROUP BY t.A`,
	`SELECT * FROM [m].CONTENT`,
	`SELECT NODE_TYPE, COUNT(*) FROM m.CONTENT WHERE NODE_SUPPORT > 1 GROUP BY NODE_TYPE HAVING COUNT(*) > 1 ORDER BY 2 DESC`,
	`SELECT TOP 10 * FROM $SYSTEM.DM_QUERY_LOG WHERE KIND = 'PREDICT' ORDER BY ELAPSED_US DESC`,
	`SELECT * FROM [$SYSTEM].[MINING_MODELS]`,
	`SELECT * FROM [SYSTEM].CASES`,
	`DELETE FROM [m]`,
	`DROP MINING MODEL [m]`,
	`EXPLAIN ANALYZE SELECT * FROM m.PMML`,
	`PREPARE q AS SELECT * FROM $SYSTEM.DM_QUERY_LOG WHERE ELAPSED_US > ?`,
	`EXECUTE q (1, -2.5, 'x', TRUE, NULL)`,
	`DEALLOCATE PREPARE q`,
	workload.PaperShape,
	`SHAPE {SELECT a FROM t} APPEND ((SHAPE {SELECT b, c FROM u} APPEND ({SELECT c, d FROM v} RELATE c TO c) AS V) RELATE a TO b) AS U`,
	`SHAPE {SELECT a FROM t} APPEND (SHAPE {SELECT b, c FROM u} APPEND ({SELECT c FROM v} RELATE c TO c) AS V RELATE a TO b) AS U`,
	`CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, Age DOUBLE, Active BOOL)`,
	`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
	`INSERT INTO t SELECT * FROM u`,
	`DELETE FROM t WHERE a = 1`,
	`UPDATE t SET a = 1, b = b + 1 WHERE c IS NULL`,
	`DROP TABLE t`,
	`SELECT c.*, s.Amount FROM c LEFT JOIN s ON c.id = s.id, d WHERE s.Amount BETWEEN ? AND @hi`,
}

// wrapped is every fuzz seed also under EXPLAIN, EXPLAIN ANALYZE and PREPARE.
func wrapped() []string {
	var out []string
	for _, src := range fuzzSeeds {
		out = append(out, src, "EXPLAIN "+src, "EXPLAIN ANALYZE "+src, "PREPARE w AS "+src)
	}
	return out
}

// FuzzParseDMX fuzzes the provider's one front end — DMX, and through it the
// SQL and SHAPE parsers. Parse never panics; it returns a statement or an
// error, never neither; every error is a positioned lex error — a statement is
// rejected at a line and column, never with a bare message; and EXPLAIN <s>
// parses if and only if s does (unless s is itself an EXPLAIN, or starts with
// the word ANALYZE, which EXPLAIN would read as its own).
func FuzzParseDMX(f *testing.F) {
	for _, src := range wrapped() {
		f.Add(src)
	}
	for _, def := range roundTripDefs() {
		f.Add(def.DDL())
	}
	isModel := isModelNamed("m", "Age Prediction")
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src, isModel)
		if err == nil && st == nil {
			t.Fatalf("Parse(%q) = nil, nil", src)
		}
		if err != nil {
			var le *lex.Error
			if !errors.As(err, &le) || le.Line < 1 || le.Col < 1 {
				t.Fatalf("Parse(%q) = %T %v, want a positioned *lex.Error", src, err, err)
			}
		}
		if first := lex.NewScanner(src).Peek(); first.Is("EXPLAIN") || first.Is("ANALYZE") {
			return
		}
		if _, xerr := Parse("EXPLAIN "+src, isModel); (xerr == nil) != (err == nil) {
			t.Fatalf("Parse(%q) err = %v, but with EXPLAIN err = %v", src, err, xerr)
		}
	})
}
