package dmx

import (
	"errors"
	"testing"

	"repro/internal/lex"
)

// fuzzSeeds are the statements the parser tests hold plus the clauses a
// SELECT over a provider rowset or a PREDICTION JOIN borrows from the SQL
// grammar.
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
}

// FuzzParseDMX: Parse never panics, and every error it returns is a
// positioned lex error — a statement is rejected at a line and column, never
// with a bare message.
func FuzzParseDMX(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	for _, def := range roundTripDefs() {
		f.Add(def.DDL())
	}
	isModel := isModelNamed("m", "Age Prediction")
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src, isModel)
		if err == nil {
			return
		}
		var le *lex.Error
		if !errors.As(err, &le) || le.Line < 1 || le.Col < 1 {
			t.Fatalf("Parse(%q) = %T %v, want a positioned *lex.Error", src, err, err)
		}
	})
}
