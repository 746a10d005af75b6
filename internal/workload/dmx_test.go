package workload

import "testing"

func TestTrainOpShape(t *testing.T) {
	op := TrainOp()
	if len(op.Statements) != 3 {
		t.Fatalf("TrainOp = %+v, want drop/create/insert triple", op)
	}
	if len(LoadSetupStatements()) != 3 {
		t.Fatalf("LoadSetupStatements = %d statements, want 3", len(LoadSetupStatements()))
	}
}
