package obs

// This file is the project's metric-name catalog: every counter, gauge,
// histogram, and vec the provider registers is named by a constant declared
// here, and every Registry.Counter/Histogram/Gauge/CounterVec/HistogramVec
// call site in internal/ must pass one of these constants (enforced by the
// dmlint metricname analyzer). Centralizing the names kills two failure
// modes at once: a typo at one call site silently forking a metric into two
// series, and the documented name set (DESIGN.md, dashboards, promtext
// output) drifting away from what the code actually emits.

// Plain counter, gauge, and histogram names.
const (
	// Provider statement pipeline.
	MetricStatementsTotal   = "provider_statements_total"
	MetricErrorsTotal       = "provider_errors_total"
	MetricCancelledTotal    = "provider_cancelled_total"
	MetricRowsOutTotal      = "provider_rows_out_total"
	MetricStatementLatency  = "provider_statement_latency_us"
	MetricPreparedTotal     = "prepared_statements_total"
	MetricPreparedExecTotal = "prepared_exec_total"
	MetricPreparedReplans   = "prepared_replans_total"

	// Session admission control.
	MetricAdmissionInFlight   = "admission_inflight"
	MetricAdmissionQueueDepth = "admission_queue_depth"
	MetricAdmissionRejected   = "admission_rejected_total"

	// Plan cache.
	MetricPlanCacheHits          = "plan_cache_hits_total"
	MetricPlanCacheMisses        = "plan_cache_misses_total"
	MetricPlanCacheEvictions     = "plan_cache_evictions_total"
	MetricPlanCacheInvalidations = "plan_cache_invalidations_total"

	// SQL engine.
	MetricSQLStatementsTotal = "sql_statements_total"
	MetricSQLErrorsTotal     = "sql_errors_total"
	MetricSQLRowsOutTotal    = "sql_rows_out_total"

	// Vectorized / morsel-parallel execution.
	MetricSQLBatchesTotal       = "sql_batches_total"
	MetricSQLMorselsTotal       = "sql_morsels_total"
	MetricSQLParallelScansTotal = "sql_parallel_scans_total"

	// Flight recorder (registered by the registry itself; see NewRegistry).
	MetricFlightConsidered = "flight_recorder_considered_total"
	MetricFlightKept       = "flight_recorder_kept_total"

	// Metrics history ring.
	MetricHistorySnapshots = "metrics_history_snapshots_total"
)

// Dimensional (vec) metric names. Each vec is keyed by exactly one
// bounded-cardinality label; the label key is part of the catalog so the
// Prometheus series shape stays stable.
const (
	MetricStatementsByClass  = "provider_statements_by_class_total"
	MetricLatencyByClass     = "provider_statement_latency_by_class_us"
	MetricStatementsByOrigin = "provider_statements_by_origin_total"
	MetricPredictionsByModel = "provider_predictions_by_model_total"
	MetricTrainingsByModel   = "provider_trainings_by_model_total"
)

// Label keys for the vec metrics above.
const (
	LabelClass  = "class"
	LabelOrigin = "origin"
	LabelModel  = "model"
	LabelReason = "reason"
)

// helpText documents metrics for the Prometheus exposition's # HELP lines.
// Entries are optional: metrics without one render TYPE only.
var helpText = map[string]string{
	MetricStatementsTotal:       "Statements executed, successful or not.",
	MetricErrorsTotal:           "Statements that returned an error.",
	MetricCancelledTotal:        "Statements aborted by context cancellation.",
	MetricRowsOutTotal:          "Result rows produced by successful statements.",
	MetricStatementLatency:      "Statement wall time in microseconds.",
	MetricStatementsByClass:     "Statements executed, by statement class.",
	MetricLatencyByClass:        "Statement wall time in microseconds, by statement class.",
	MetricStatementsByOrigin:    "Statements executed, by session origin.",
	MetricPredictionsByModel:    "PREDICTION JOIN statements, by mining model.",
	MetricTrainingsByModel:      "Model training runs (INSERT INTO), by mining model.",
	MetricSQLBatchesTotal:       "Row batches pulled by SELECT drains; every SELECT counts, point probes included.",
	MetricSQLMorselsTotal:       "Table morsels (scan partitions) dispatched to scan workers.",
	MetricSQLParallelScansTotal: "Queries whose table scan ran as more than one partition.",
	MetricFlightConsidered:      "Completed statements offered to the flight recorder.",
	MetricFlightKept:            "Statements retained by the flight recorder, by keep reason.",
	MetricHistorySnapshots:      "Metric-history snapshots taken by the background ticker.",
}

// Help returns the catalog's HELP text for a metric name ("" when none).
func Help(name string) string { return helpText[name] }
