// Statements for traffic that reads beside training: a point prediction, a
// point SELECT, the model DDL, and the drop/create/retrain unit that swaps
// catalog snapshots under the readers.

package workload

import "fmt"

// Mining models of the read-while-train traffic. [Load Model] is trained
// once at setup and serves the predictions; [Load Train] is retrained in a
// loop so catalog snapshots keep swapping under the readers.
const (
	LoadModelName = "Load Model"
	LoadTrainName = "Load Train"
)

// Op is one unit of work. Its statements run in order on one connection and
// the whole unit is timed as a single operation.
type Op struct {
	Statements []string
}

// PredictStatement is a single-customer prediction against [Load Model]: the
// source is a point query, so the statement exercises parse, plan, index
// probe, and one model evaluation.
func PredictStatement(id int) string {
	return fmt.Sprintf(`SELECT t.[Customer ID], [%s].Age FROM [%s]
	NATURAL PREDICTION JOIN (SELECT [Customer ID], Gender FROM Customers WHERE [Customer ID] = %d) AS t`,
		LoadModelName, LoadModelName, id)
}

// SelectStatement is the plain-SQL point query over the Customers table.
func SelectStatement(id int) string {
	return fmt.Sprintf(`SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = %d`, id)
}

const loadModelColumns = `(
	[Customer ID] LONG KEY,
	[Gender] TEXT DISCRETE,
	[Hair Color] TEXT DISCRETE,
	[Age] DOUBLE DISCRETIZED PREDICT
) USING [Decision_Trees]`

const loadTrainSource = `SELECT [Customer ID], Gender, [Hair Color], Age FROM Customers ORDER BY [Customer ID]`

// LoadSetupStatements creates and trains [Load Model] (the predict target)
// and creates [Load Train] for the retrain loop. Run once before traffic.
func LoadSetupStatements() []string {
	return []string{
		fmt.Sprintf(`CREATE MINING MODEL [%s] %s`, LoadModelName, loadModelColumns),
		fmt.Sprintf(`INSERT INTO [%s] ([Customer ID], [Gender], [Hair Color], [Age])
	%s`, LoadModelName, loadTrainSource),
		fmt.Sprintf(`CREATE MINING MODEL [%s] %s`, LoadTrainName, loadModelColumns),
	}
}

// TrainOp is one trainer iteration: drop and re-create [Load Train], then a
// full training pass. The drop/create pair forces two catalog snapshot swaps
// and the INSERT holds the training commit for the length of a scan+train.
func TrainOp() Op {
	return Op{Statements: []string{
		fmt.Sprintf(`DROP MINING MODEL [%s]`, LoadTrainName),
		fmt.Sprintf(`CREATE MINING MODEL [%s] %s`, LoadTrainName, loadModelColumns),
		fmt.Sprintf(`INSERT INTO [%s] ([Customer ID], [Gender], [Hair Color], [Age])
	%s`, LoadTrainName, loadTrainSource),
	}}
}
