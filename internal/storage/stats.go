package storage

import (
	"strings"

	"repro/internal/lex"
	"repro/internal/rowset"
)

// TableStats is a point-in-time cardinality summary of one table: the row
// count plus the number of distinct values per column. The cost-based parts
// of the SQL planner use it to estimate the selectivity of an equality
// predicate (rows / distinct), which picks the index a scan probes and shows
// on EXPLAIN's scan labels.
type TableStats struct {
	// Rows is the table's row count when the stats were computed.
	Rows int
	// Distinct maps lower-cased bare column names to their distinct value
	// counts (NULL counts as one value).
	Distinct map[string]int
}

// DistinctCount returns the distinct value count for col (case-insensitive),
// or 0 when the column is unknown.
func (s *TableStats) DistinctCount(col string) int {
	if s == nil {
		return 0
	}
	d, _ := lex.LookupFold(s.Distinct, col)
	return d
}

// EqEstimate estimates how many rows an equality predicate on col selects:
// rows divided by the column's distinct count (at least 1 while the table is
// non-empty), or the full row count when the column has no stats.
func (s *TableStats) EqEstimate(col string) int {
	if s == nil {
		return 0
	}
	d := s.DistinctCount(col)
	if d <= 0 {
		return s.Rows
	}
	est := s.Rows / d
	if est < 1 && s.Rows > 0 {
		est = 1
	}
	return est
}

// Version returns the table's data version: a counter bumped by every
// Insert, Replace, and Truncate. Plan caches key cardinality stats (and plan
// validity) on it.
func (t *Table) Version() uint64 { return t.version.Load() }

// statsSnapshot pairs an immutable cardinality summary with the data version
// it reflects.
type statsSnapshot struct {
	version uint64
	stats   *TableStats
}

// Stats returns cardinality statistics for the table, recomputing them only
// when the data version moved since the last computation. The returned value
// is a shared immutable snapshot; callers must not mutate it.
//
// The cache is a copy-on-write snapshot swapped atomically: the fast path is
// one atomic load, and recomputation takes only the read lock (the scan does
// not mutate), so a planner asking for statistics never serializes behind —
// or blocks — concurrent writers for longer than the scan itself.
func (t *Table) Stats() *TableStats {
	if snap := t.statsSnap.Load(); snap != nil && snap.version == t.version.Load() {
		return snap.stats
	}
	// Read the version inside the lock so the tag matches the rows scanned:
	// writers bump it under the write lock.
	t.mu.RLock()
	v := t.version.Load()
	s := t.computeStatsRLocked()
	t.mu.RUnlock()
	// Publish unless someone already published stats for a newer version —
	// concurrent computes are idempotent per version, but an older result
	// must not clobber a fresher one.
	for {
		old := t.statsSnap.Load()
		if old != nil && old.version > v {
			return s
		}
		if t.statsSnap.CompareAndSwap(old, &statsSnapshot{version: v, stats: s}) {
			return s
		}
	}
}

// computeStatsRLocked scans the table once, counting distinct values per
// column via the same key encoding the hash indexes use. t.mu must be held
// (read or write).
func (t *Table) computeStatsRLocked() *TableStats {
	s := &TableStats{Rows: len(t.rows), Distinct: make(map[string]int, t.schema.Len())}
	var scratch [48]byte
	for ord := 0; ord < t.schema.Len(); ord++ {
		seen := make(map[string]struct{})
		for _, r := range t.rows {
			key := rowset.AppendKey(scratch[:0], r[ord])
			if _, dup := seen[string(key)]; !dup {
				seen[string(key)] = struct{}{}
			}
		}
		s.Distinct[strings.ToLower(t.schema.Column(ord).Name)] = len(seen)
	}
	return s
}

// bumpVersion invalidates cached statistics after a data mutation and drops
// the cached key indexes, so none pins the old snapshot. t.mu must be held for
// writing.
func (t *Table) bumpVersion() {
	t.version.Add(1)
	t.keyIdx.Store(nil)
}
