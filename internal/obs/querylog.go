package obs

import (
	"sync"
	"time"
)

// Stage identifies one timed phase of statement execution. The stages mirror
// the provider's pipeline: lex/parse, semantic bind, source assembly (the SQL
// or SHAPE query feeding a mining statement, or a standalone SHAPE), model
// training, and the per-case scan (PREDICTION JOIN evaluation, or plain SQL
// execution for relational statements).
type Stage int

const (
	StageParse Stage = iota
	StageBind
	StageSource
	StageTrain
	StageScan
	// NumStages is the number of stages; Record.Stages is indexed by Stage.
	NumStages
)

var stageNames = [NumStages]string{"parse", "bind", "source", "train", "scan"}

// String returns the stage's lower-case name.
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// maxStatementLen bounds the statement text kept in a query-log record so a
// pathological multi-megabyte statement cannot pin memory through the ring.
const maxStatementLen = 512

// Record is one completed statement in the query log.
type Record struct {
	// Seq is the statement's 1-based position in the provider's lifetime
	// statement sequence; it keeps ordering stable across ring wraparound.
	Seq int64
	// Start is when execution began.
	Start time.Time
	// Statement is the command text, truncated to maxStatementLen bytes.
	Statement string
	// Kind labels the statement class (SQL, SHAPE, PREDICT, INSERT, ...).
	Kind string
	// Origin labels where the statement came from (e.g. a remote address for
	// server connections); empty for in-process calls.
	Origin string
	// ErrClass is the error classification ("" on success): parse, semantic,
	// not_found, cancelled, or exec.
	ErrClass string
	// Elapsed is total wall time.
	Elapsed time.Duration
	// Stages holds per-stage wall time, indexed by Stage. Stages that did not
	// run are zero.
	Stages [NumStages]time.Duration
	// RowsIn is the number of source rows consumed (training or scan input).
	RowsIn int64
	// RowsOut is the number of result rows produced.
	RowsOut int64
	// Parallelism is the most goroutines any one of the statement's scans ran
	// on: 1 for a single partition, 0 for a statement that scanned nothing.
	Parallelism int
}

// QueryLog is a bounded ring buffer of the most recent statement Records.
// Appends are O(1) and never allocate once the ring is full.
type QueryLog struct {
	// mu guards the ring and sequence counter; see the package guard
	// annotation on Registry.
	mu      sync.Mutex
	records []Record
	cap     int
	seq     int64
}

// NewQueryLog creates a log keeping the last capacity records
// (DefaultQueryLogCap when capacity <= 0).
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = DefaultQueryLogCap
	}
	return &QueryLog{cap: capacity}
}

// Append records one statement, assigning its Seq, and returns that Seq.
// Safe on a nil log (returns 0).
func (l *QueryLog) Append(r Record) int64 {
	if l == nil {
		return 0
	}
	if len(r.Statement) > maxStatementLen {
		r.Statement = r.Statement[:maxStatementLen]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	r.Seq = l.seq
	if len(l.records) < l.cap {
		l.records = append(l.records, r)
	} else {
		l.records[int((r.Seq-1)%int64(l.cap))] = r
	}
	return r.Seq
}

// Cap returns the ring capacity.
func (l *QueryLog) Cap() int {
	if l == nil {
		return 0
	}
	return l.cap
}

// Total returns the lifetime number of appended records (not bounded by the
// ring capacity).
func (l *QueryLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Find returns the record with the given seq, if the ring still holds it.
// Seq is a ring position (Append assigns them densely), so the lookup is
// O(1). Safe on a nil log.
func (l *QueryLog) Find(seq int64) (Record, bool) {
	if l == nil || seq <= 0 {
		return Record{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.seq || seq <= l.seq-int64(len(l.records)) {
		return Record{}, false // never assigned, or already overwritten
	}
	r := l.records[int((seq-1)%int64(l.cap))]
	if r.Seq != seq {
		return Record{}, false
	}
	return r, true
}

// Snapshot returns the retained records, oldest first. A nil log snapshots
// as empty.
func (l *QueryLog) Snapshot() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.records))
	if len(l.records) < l.cap {
		return append(out, l.records...)
	}
	// Full ring: the oldest record sits just past the most recent write.
	start := int(l.seq % int64(l.cap))
	out = append(out, l.records[start:]...)
	out = append(out, l.records[:start]...)
	return out
}
