package exec

import (
	"errors"
	"time"

	"graql/internal/ast"
	"graql/internal/obs"
)

// engineMetrics caches the engine's metric series so hot paths update
// them with single atomic adds instead of registry lookups. All fields
// are nil when no registry is configured; obs types are nil-safe, so
// instrumentation points need no branches.
type engineMetrics struct {
	reg *obs.Registry

	statements *obs.Counter // every executed statement
	queries    *obs.Counter // select statements only
	errors     *obs.Counter
	canceled   *obs.Counter // statements aborted by context cancellation
	timedOut   *obs.Counter // statements aborted by deadline expiry
	vetErrors  *obs.Counter // error diagnostics reported by vet runs

	rowsScanned    *obs.Counter // candidate-scan and table-scan rows visited
	edgesTraversed *obs.Counter // edge-index entries walked
	indexHits      *obs.Counter // vertices walked back through a reverse index
	indexMisses    *obs.Counter // backward walks that scanned the edge set instead

	shardRuns     *obs.Counter // data-parallel sweeps launched
	shardTasks    *obs.Counter // shards executed across all sweeps
	activeWorkers *obs.Gauge   // goroutines currently inside a sweep

	tableOpsParallel *obs.Counter // relational operators run on the morsel-parallel path

	irVerifyFailures *obs.Counter // IR/plan verifier rejections (should stay 0)

	rowsInserted *obs.Counter // rows added by insert statements
	rowsUpdated  *obs.Counter // rows rewritten by update statements
	rowsDeleted  *obs.Counter // rows removed by delete statements

	latency map[string]*obs.Histogram // per-statement-kind latency (seconds)
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	m := engineMetrics{reg: reg}
	m.statements = reg.Counter("graql_statements_total", "GraQL statements executed")
	m.queries = reg.Counter("graql_queries_total", "GraQL select statements executed")
	m.errors = reg.Counter("graql_statement_errors_total", "GraQL statements that returned an error")
	m.canceled = reg.Counter("graql_queries_canceled_total", "GraQL statements aborted by context cancellation")
	m.timedOut = reg.Counter("graql_queries_timeout_total", "GraQL statements aborted by deadline expiry")
	m.vetErrors = reg.Counter("graql_vet_errors_total", "error diagnostics reported by static-analysis (vet) runs")
	m.rowsScanned = reg.Counter("graql_rows_scanned_total", "table and vertex-candidate rows scanned")
	m.edgesTraversed = reg.Counter("graql_edges_traversed_total", "edge-index entries traversed during matching")
	m.indexHits = reg.Counter("graql_reverse_index_hits_total", "vertices walked back through a reverse index")
	m.indexMisses = reg.Counter("graql_reverse_index_misses_total", "backward walks without a reverse index, each one scan of the edge list: one per set sweep, one per bound vertex when enumerating")
	m.shardRuns = reg.Counter("graql_parallel_sweeps_total", "data-parallel sweeps launched")
	m.shardTasks = reg.Counter("graql_parallel_shards_total", "shards executed across all sweeps")
	m.activeWorkers = reg.Gauge("graql_parallel_active_workers", "goroutines currently executing sweep shards")
	m.tableOpsParallel = reg.Counter("graql_tableops_parallel_total", "relational operators (filter, order-by) executed on the morsel-parallel path")
	m.irVerifyFailures = reg.Counter("graql_ir_verify_failures_total", "decoded IR scripts or analyzed plans rejected by the structural verifier")
	m.rowsInserted = reg.Counter("graql_rows_inserted_total", "rows added by insert statements")
	m.rowsUpdated = reg.Counter("graql_rows_updated_total", "rows rewritten by update statements")
	m.rowsDeleted = reg.Counter("graql_rows_deleted_total", "rows removed by delete statements")
	m.latency = make(map[string]*obs.Histogram, 8)
	for _, kind := range []string{"select", "create", "ingest", "output", "insert", "update", "delete"} {
		m.latency[kind] = reg.HistogramL("graql_statement_latency_seconds",
			"statement execution latency by statement kind",
			obs.LatencyBuckets(), map[string]string{"kind": kind})
	}
	return m
}

// noteIRVerifyFailure records one IR/plan verifier rejection.
func (m *engineMetrics) noteIRVerifyFailure() {
	if m == nil || m.reg == nil {
		return
	}
	m.irVerifyFailures.Inc()
}

func stmtKind(st ast.Stmt) string {
	switch st.(type) {
	case *ast.Select:
		return "select"
	case *ast.CreateTable, *ast.CreateVertex, *ast.CreateEdge:
		return "create"
	case *ast.Ingest:
		return "ingest"
	case *ast.Output:
		return "output"
	case *ast.Insert:
		return "insert"
	case *ast.Update:
		return "update"
	case *ast.Delete:
		return "delete"
	}
	return "other"
}

// noteMutation records the rows affected by a committed DML statement.
func (m *engineMetrics) noteMutation(verb string, rows int) {
	if m == nil || m.reg == nil {
		return
	}
	switch verb {
	case "insert":
		m.rowsInserted.Add(int64(rows))
	case "update":
		m.rowsUpdated.Add(int64(rows))
	case "delete":
		m.rowsDeleted.Add(int64(rows))
	}
}

// observeStmt records one executed statement: totals, per-kind latency,
// and the per-statement observability event that feeds the statement
// statistics store, the slow-query log and the wide-event query log
// (linked to the statement's trace when it ran under one).
func (m *engineMetrics) observeStmt(st ast.Stmt, a *stmtAcct, elapsed time.Duration, rows int64, err error, trace obs.TraceID) {
	if m.reg == nil {
		return
	}
	m.statements.Inc()
	code := ""
	if err != nil {
		m.errors.Inc()
		code = "exec"
		switch {
		case errors.Is(err, ErrDeadlineExceeded):
			m.timedOut.Inc()
			code = "deadline"
		case errors.Is(err, ErrCanceled):
			m.canceled.Inc()
			code = "canceled"
		}
	}
	if _, ok := st.(*ast.Select); ok {
		m.queries.Inc()
	}
	if h := m.latency[stmtKind(st)]; h != nil {
		h.Observe(elapsed.Seconds())
	}
	ev := obs.StmtEvent{
		Script:      a.id.script,
		Kind:        stmtKind(st),
		Code:        code,
		Elapsed:     elapsed,
		Rows:        rows,
		Trace:       trace,
		Fingerprint: a.id.fp,
		Text:        a.id.norm,
		QueueWait:   a.queueWait,
		PlanHit:     a.planHit,
		RowsScanned: a.rowsScanned.Load(),
		WALBytes:    a.walBytes.Load(),
		Workers:     int(a.workers.Load()),
	}
	m.reg.ObserveStmtEvent(ev)
}
