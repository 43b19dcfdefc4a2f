package obs

import (
	"container/list"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Per-statement statistics: a pg_stat_statements-style accounting table
// keyed on statement fingerprint. Every completed statement reports one
// StmtEvent; the store aggregates calls, failures, rows, scan work, WAL
// volume and latency per statement shape, bounded by an LRU over shapes.
// The same event feeds the slow-query log and, when a query logger is
// configured, one wide structured log line per statement.

// stmtStatsCap bounds how many distinct statement shapes the store
// retains; beyond it the least-recently-executed shape is evicted.
const stmtStatsCap = 1024

// stmtTopK is how many shapes (by total execution time) are exported as
// labeled Prometheus series; the full table stays available as JSON.
const stmtTopK = 20

// StmtEvent describes one completed statement to the observability
// registry — the input of the stats store, the slow-query log and the
// wide-event query log.
type StmtEvent struct {
	// Fingerprint and Text identify the statement's shape (obs.Fingerprint).
	Fingerprint uint64
	Text        string
	// Script is the raw statement text (literals intact), used by the
	// slow-query log.
	Script string
	// Kind is the statement kind ("select", "insert", ...).
	Kind string
	// Code classifies a failure ("canceled", "deadline", "exec"); empty on
	// success.
	Code string
	// Elapsed is the statement's execution wall time.
	Elapsed time.Duration
	// Rows is the result size (table rows or subgraph vertices).
	Rows int64
	// RowsScanned is the scan work the statement performed.
	RowsScanned int64
	// WALBytes is the write-ahead-log volume the statement appended (DML
	// on a durable database; 0 otherwise).
	WALBytes int64
	// QueueWait is how long the request sat in the admission queue before
	// execution (0 when admission control is off or uncontended).
	QueueWait time.Duration
	// Workers is the widest parallel fan-out the statement used.
	Workers int
	// PlanHit reports that the statement's plan was served from the
	// engine's plan cache (analysis skipped).
	PlanHit bool
	// Trace links the event to its trace tree, when the statement ran
	// under one.
	Trace TraceID
}

// StmtStat is the aggregated view of one statement shape, as returned by
// Registry.Statements, GET /debug/statements and the "statements" op.
type StmtStat struct {
	Fingerprint string `json:"fingerprint"`
	Query       string `json:"query"` // normalized text
	Calls       int64  `json:"calls"`
	Errors      int64  `json:"errors"`
	Canceled    int64  `json:"canceled"`
	TimedOut    int64  `json:"timedOut"`
	Rows        int64  `json:"rows"`
	RowsScanned int64  `json:"rowsScanned"`
	WALBytes    int64  `json:"walBytes"`
	// PlanHits counts executions whose plan came from the plan cache.
	PlanHits int64 `json:"planHits"`
	TotalUs  int64 `json:"totalUs"`
	MinUs    int64 `json:"minUs"`
	MaxUs    int64 `json:"maxUs"`
	MeanUs   int64 `json:"meanUs"`
	// LatencyBuckets is the shape's cumulative latency histogram
	// (upper-bound seconds → count; "+Inf" is the total).
	LatencyBuckets map[string]int64 `json:"latencyBuckets,omitempty"`
}

// stmtEntry is the mutable per-shape accumulator. All fields are guarded
// by the store mutex — updates happen once per completed statement, not
// on any per-row path, so a plain mutex is cheap enough.
type stmtEntry struct {
	fp   uint64
	text string

	calls, errs, canceled, timedOut int64
	rows, rowsScanned, walBytes     int64
	planHits                        int64
	totalNs, minNs, maxNs           int64

	hist *Histogram
	elem *list.Element // position in the LRU list (front = most recent)
}

// stmtStats is the bounded concurrent per-shape table embedded in a
// Registry (like the slow log and the trace ring).
type stmtStats struct {
	mu      sync.Mutex
	byFP    map[uint64]*stmtEntry
	lru     *list.List
	evicted int64
}

func (s *stmtStats) observe(ev *StmtEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byFP == nil {
		s.byFP = make(map[uint64]*stmtEntry)
		s.lru = list.New()
	}
	e, ok := s.byFP[ev.Fingerprint]
	if !ok {
		if len(s.byFP) >= stmtStatsCap {
			oldest := s.lru.Back()
			victim := oldest.Value.(*stmtEntry)
			s.lru.Remove(oldest)
			delete(s.byFP, victim.fp)
			s.evicted++
		}
		b := LatencyBuckets()
		e = &stmtEntry{
			fp: ev.Fingerprint, text: ev.Text,
			hist: &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)},
		}
		e.elem = s.lru.PushFront(e)
		s.byFP[ev.Fingerprint] = e
	} else {
		s.lru.MoveToFront(e.elem)
	}

	ns := ev.Elapsed.Nanoseconds()
	e.calls++
	if ev.Code != "" {
		e.errs++
		switch ev.Code {
		case "canceled":
			e.canceled++
		case "deadline":
			e.timedOut++
		}
	}
	e.rows += ev.Rows
	e.rowsScanned += ev.RowsScanned
	e.walBytes += ev.WALBytes
	if ev.PlanHit {
		e.planHits++
	}
	e.totalNs += ns
	if e.calls == 1 || ns < e.minNs {
		e.minNs = ns
	}
	if ns > e.maxNs {
		e.maxNs = ns
	}
	e.hist.Observe(ev.Elapsed.Seconds())
}

// snapshot renders every retained shape, most expensive (total time)
// first. withBuckets controls whether the per-shape latency histograms
// are included (the Prometheus top-K sync skips them).
func (s *stmtStats) snapshot(withBuckets bool) []StmtStat {
	s.mu.Lock()
	entries := make([]*stmtEntry, 0, len(s.byFP))
	for _, e := range s.byFP {
		entries = append(entries, e)
	}
	out := make([]StmtStat, len(entries))
	for i, e := range entries {
		out[i] = StmtStat{
			Fingerprint: FormatFingerprint(e.fp),
			Query:       e.text,
			Calls:       e.calls,
			Errors:      e.errs,
			Canceled:    e.canceled,
			TimedOut:    e.timedOut,
			Rows:        e.rows,
			RowsScanned: e.rowsScanned,
			WALBytes:    e.walBytes,
			PlanHits:    e.planHits,
			TotalUs:     e.totalNs / 1e3,
			MinUs:       e.minNs / 1e3,
			MaxUs:       e.maxNs / 1e3,
		}
		if e.calls > 0 {
			out[i].MeanUs = e.totalNs / e.calls / 1e3
		}
		if withBuckets {
			bounds, cum := e.hist.Buckets()
			buckets := make(map[string]int64, len(bounds)+1)
			for j, ub := range bounds {
				buckets[formatFloat(ub)] = cum[j]
			}
			buckets["+Inf"] = e.hist.Count()
			out[i].LatencyBuckets = buckets
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUs != out[j].TotalUs {
			return out[i].TotalUs > out[j].TotalUs
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// ObserveStmtEvent records one completed statement: the per-shape stats
// table, the slow-query log (when the statement crossed the threshold)
// and the wide-event query log (when a query logger is configured) all
// update from this single call.
func (r *Registry) ObserveStmtEvent(ev StmtEvent) {
	if r == nil {
		return
	}
	r.stmts.observe(&ev)
	r.observeSlow(&ev)
	if l := r.qlog.Load(); l != nil {
		l.Info("query",
			"fingerprint", FormatFingerprint(ev.Fingerprint),
			"trace_id", traceIDString(ev.Trace),
			"kind", ev.Kind,
			"code", ev.Code,
			"rows", ev.Rows,
			"rows_scanned", ev.RowsScanned,
			"elapsed_us", ev.Elapsed.Microseconds(),
			"queue_wait_us", ev.QueueWait.Microseconds(),
			"plan_hit", ev.PlanHit,
			"wal_bytes", ev.WALBytes,
			"workers", ev.Workers,
			"query", ev.Text,
		)
	}
}

// traceIDString renders a trace id for log fields, empty when unset.
func traceIDString(t TraceID) string {
	if t.IsZero() {
		return ""
	}
	return t.String()
}

// Statements returns the per-shape statement statistics, most expensive
// shape (by total execution time) first, including per-shape latency
// histograms.
func (r *Registry) Statements() []StmtStat {
	if r == nil {
		return nil
	}
	return r.stmts.snapshot(true)
}

// StatementsEvicted reports how many shapes the bounded store has evicted
// since start.
func (r *Registry) StatementsEvicted() int64 {
	if r == nil {
		return 0
	}
	r.stmts.mu.Lock()
	defer r.stmts.mu.Unlock()
	return r.stmts.evicted
}

// SetQueryLogger attaches the wide-event query log: one structured line
// per completed statement, carrying fingerprint, trace id, result code,
// rows, scan work, elapsed time, admission queue wait, WAL volume and
// parallel fan-out. nil detaches it.
func (r *Registry) SetQueryLogger(l *slog.Logger) {
	if r == nil {
		return
	}
	r.qlog.Store(l)
}

// SetQueryLogWriter is SetQueryLogger with a JSON handler over w (nil
// detaches the query log).
func (r *Registry) SetQueryLogWriter(w io.Writer) {
	if r == nil {
		return
	}
	if w == nil {
		r.SetQueryLogger(nil)
		return
	}
	r.SetQueryLogger(slog.New(slog.NewJSONHandler(w, nil)))
}

// Labeled Prometheus series for the top-K statement shapes. The series
// set is rebuilt at collect time (scrape, Snapshot): stale shapes drop
// out, the current top-K by total time stay exported. Values are
// microseconds for time (the registry's counters are integral).
const (
	stmtCallsFamily  = "graql_stmt_calls_total"
	stmtErrorsFamily = "graql_stmt_errors_total"
	stmtRowsFamily   = "graql_stmt_rows_total"
	stmtScanFamily   = "graql_stmt_rows_scanned_total"
	stmtTimeFamily   = "graql_stmt_time_us_total"
)

// registerStmtCollector wires the top-K sync into the registry's collect
// hooks. Called from New.
func registerStmtCollector(r *Registry) {
	r.OnCollect(func() { r.syncStmtSeries() })
}

// syncStmtSeries replaces the per-fingerprint series with the current
// top-K shapes by total execution time.
func (r *Registry) syncStmtSeries() {
	top := r.stmts.snapshot(false)
	if len(top) > stmtTopK {
		top = top[:stmtTopK]
	}
	r.mu.Lock()
	for key, e := range r.entries {
		switch e.family {
		case stmtCallsFamily, stmtErrorsFamily, stmtRowsFamily, stmtScanFamily, stmtTimeFamily:
			delete(r.entries, key)
		}
	}
	r.mu.Unlock()
	for _, st := range top {
		lbl := map[string]string{"fingerprint": st.Fingerprint}
		r.CounterL(stmtCallsFamily, "executions per statement shape (top shapes by total time)", lbl).set(st.Calls)
		r.CounterL(stmtErrorsFamily, "failed executions per statement shape", lbl).set(st.Errors)
		r.CounterL(stmtRowsFamily, "rows returned per statement shape", lbl).set(st.Rows)
		r.CounterL(stmtScanFamily, "rows scanned per statement shape", lbl).set(st.RowsScanned)
		r.CounterL(stmtTimeFamily, "total execution microseconds per statement shape", lbl).set(st.TotalUs)
	}
}

// set stores an absolute value — used only by the top-K sync, which
// rebuilds counter series from the stats table at collect time.
func (c *Counter) set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}
