package schemarowset

import (
	"repro/internal/obs"
	"repro/internal/rowset"
)

// This file renders operator span trees as rowsets: the EXPLAIN [ANALYZE]
// result, and $SYSTEM.DM_FLIGHT_RECORDER (the span trees the statement store
// retains). Trees flatten in preorder; SPAN_ID/PARENT_ID/DEPTH rebuild the
// hierarchy client-side without any nested-table machinery.

// spanColumns are the per-span columns shared by Explain and FlightRecorder.
func spanColumns() []rowset.Column {
	return []rowset.Column{
		{Name: "SPAN_ID", Type: rowset.TypeLong},
		{Name: "PARENT_ID", Type: rowset.TypeLong},
		{Name: "DEPTH", Type: rowset.TypeLong},
		{Name: "OPERATOR", Type: rowset.TypeText},
		{Name: "LABEL", Type: rowset.TypeText},
		{Name: "ELAPSED_US", Type: rowset.TypeLong},
		{Name: "ROWS", Type: rowset.TypeLong},
	}
}

// appendSpans flattens one span tree into rs in preorder, assigning SPAN_IDs
// from 1 and NULL PARENT_ID at the root. Each row is prefix + span columns.
// With measured=false (bare EXPLAIN: a plan that never ran) ELAPSED_US and
// ROWS render as NULL rather than misleading zeros.
func appendSpans(rs *rowset.Rowset, root *obs.Span, measured bool, prefix []rowset.Value) error {
	id := int64(0)
	var rec func(sp *obs.Span, parent rowset.Value, depth int64) error
	rec = func(sp *obs.Span, parent rowset.Value, depth int64) error {
		id++
		myID := id
		var elapsed, rows rowset.Value
		if measured {
			elapsed = sp.Elapsed.Microseconds()
			rows = sp.Rows
		}
		vals := make([]rowset.Value, 0, len(prefix)+7)
		vals = append(vals, prefix...)
		vals = append(vals, myID, parent, depth, sp.Kind, sp.Label, elapsed, rows)
		if err := rs.Append(vals); err != nil {
			return err
		}
		for _, c := range sp.Children {
			if err := rec(c, myID, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(root, nil, 0)
}

// Explain renders an EXPLAIN [ANALYZE] result: the span tree as a rowset,
// with measured times and row counts when the statement actually ran.
func Explain(root *obs.Span, measured bool) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(spanColumns()...))
	if root == nil {
		return rs, nil
	}
	if err := appendSpans(rs, root, measured, nil); err != nil {
		return nil, err
	}
	return rs, nil
}

// FlightRecorder renders $SYSTEM.DM_FLIGHT_RECORDER: every statement the
// statement store's retained policy holds — errors, busy rejections,
// cancellations, over-p95 outliers, and a reservoir sample of normal traffic
// — by ascending SEQ, one row per span. KEEP_REASON says why the statement survived;
// THRESHOLD_US is the class p95 it was judged against (NULL while the class
// was warming up). SEQ joins DM_QUERY_LOG and matches the seq field clients
// receive in the wire stats trailer.
func FlightRecorder(o *obs.Registry) (*rowset.Rowset, error) {
	cols := append([]rowset.Column{
		{Name: "SEQ", Type: rowset.TypeLong},
		{Name: "START_TIME", Type: rowset.TypeDate},
		{Name: "STATEMENT", Type: rowset.TypeText},
		{Name: "KIND", Type: rowset.TypeText},
		{Name: "ORIGIN", Type: rowset.TypeText},
		{Name: "ERROR_CLASS", Type: rowset.TypeText},
		{Name: "KEEP_REASON", Type: rowset.TypeText},
		{Name: "THRESHOLD_US", Type: rowset.TypeLong},
	}, spanColumns()...)
	rs := rowset.New(rowset.MustSchema(cols...))
	for _, r := range o.QueryLog().Retained() {
		var threshold rowset.Value
		if r.ThresholdUS > 0 {
			threshold = r.ThresholdUS
		}
		prefix := []rowset.Value{
			r.Seq, r.Start, r.Statement, r.Kind, r.Origin, r.ErrClass,
			string(r.Reason), threshold,
		}
		if err := appendSpans(rs, r.Root.Span(), true, prefix); err != nil {
			return nil, err
		}
	}
	return rs, nil
}
