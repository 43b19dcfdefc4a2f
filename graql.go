// Package graql is an in-memory attributed graph database with the GraQL
// query language, reproducing the design of "GraQL: A Query Language for
// High-Performance Attributed Graph Databases" (Chavarría-Miranda et al.,
// IPDPS Workshops 2016) and its GEMS execution architecture.
//
// All data is stored in strongly typed tables; vertex and edge types are
// views declared over those tables; queries mix SQL relational operations
// with graph path patterns:
//
//	db := graql.Open()
//	db.MustExec(`
//	    create table Cities(id varchar(10), country varchar(2))
//	    create table Roads(src varchar(10), dst varchar(10), km integer)
//	    create vertex City(id) from table Cities
//	    create edge road with vertices (City as A, City as B)
//	    from table Roads
//	    where Roads.src = A.id and Roads.dst = B.id
//	`)
//	res, err := db.Exec(`
//	    select B.id from graph
//	    City (id = 'PDX') --road--> def B: City ( )
//	`)
//
// See README.md for the language reference and DESIGN.md for the
// architecture.
package graql

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"graql/internal/cluster"
	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/storage"
	"graql/internal/value"
)

// Structured abort errors. Queries run through ExecContext (or a context
// front-end path) return these when the context dies mid-execution; both
// also match the corresponding context package sentinels with errors.Is.
var (
	// ErrCanceled reports a query aborted by context cancellation.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadlineExceeded reports a query aborted by its deadline.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
)

// DB is an in-memory GraQL database: a catalog of tables, vertex/edge
// views and named results, plus the parallel execution engine.
type DB struct {
	eng *exec.Engine
}

// Option configures a DB at Open time.
type Option func(*exec.Options)

// WithWorkers sets the parallelism degree for frontier expansion,
// binding enumeration and the parallel relational operators (default:
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *exec.Options) { o.Workers = n }
}

// WithParallelThreshold sets the minimum input row count before the
// relational operators (filter, hash join, group-by, order-by) run on
// the morsel-parallel path; smaller inputs use the serial operators.
// 0 restores the built-in default. Raise it when queries touch mostly
// small tables; lower it to force parallelism in tests and benchmarks.
func WithParallelThreshold(rows int) Option {
	return func(o *exec.Options) { o.ParallelThreshold = rows }
}

// WithReverseIndexes controls building reverse edge indexes (default on).
// GEMS builds them "when memory space on the cluster is available"; paths
// are still answerable without them via edge scans, only slower.
func WithReverseIndexes(on bool) Option {
	return func(o *exec.Options) { o.ReverseIndexes = on }
}

// WithBaseDir anchors relative ingest file paths.
func WithBaseDir(dir string) Option {
	return func(o *exec.Options) { o.BaseDir = dir }
}

// WithFileOpener overrides how ingest resolves file paths (e.g. to serve
// data from memory or to sandbox file access).
func WithFileOpener(open func(path string) (io.ReadCloser, error)) Option {
	return func(o *exec.Options) { o.FileOpener = open }
}

// WithMetrics enables the observability registry: query/scan/traversal
// counters, per-statement latency histograms and parallel-worker
// utilisation, exposed by MetricsText (and, through the servers, the
// /metrics endpoint and the "metrics" op).
func WithMetrics() Option {
	return func(o *exec.Options) {
		if o.Obs == nil {
			o.Obs = obs.New()
		}
	}
}

// WithSlowQueryLog enables metrics and records every statement slower
// than threshold in the slow-query ring; a non-nil w additionally
// receives one log line per slow statement.
func WithSlowQueryLog(threshold time.Duration, w io.Writer) Option {
	return func(o *exec.Options) {
		if o.Obs == nil {
			o.Obs = obs.New()
		}
		o.Obs.SetSlowQueryThreshold(threshold)
		o.Obs.SetSlowQueryWriter(w)
	}
}

// WithQueryLog enables metrics and the wide-event query log: one
// structured JSON line per completed statement on w, carrying the
// statement's fingerprint, trace id, result code, rows, scan work,
// elapsed time, admission queue wait, WAL volume and parallel fan-out.
func WithQueryLog(w io.Writer) Option {
	return func(o *exec.Options) {
		if o.Obs == nil {
			o.Obs = obs.New()
		}
		o.Obs.SetQueryLogWriter(w)
	}
}

// WithTracing enables metrics plus hierarchical request tracing: the
// registry retains the last n complete trace trees (n <= 0 picks the
// default of 64), readable through Traces (and, through the servers,
// GET /debug/traces and the "trace" op). Statements executed over the
// TCP or HTTP front-ends then produce one span tree each.
func WithTracing(n int) Option {
	return func(o *exec.Options) {
		if o.Obs == nil {
			o.Obs = obs.New()
		}
		if n <= 0 {
			n = 64
		}
		o.Obs.EnableTracing(n)
	}
}

// WithPlanCache sets the capacity of the script cache: a repeated
// read-only script text runs its already compiled form (no lexing,
// parsing, analysis or planning), re-planning only when something its
// plan read has changed (a table's schema, the view graph). Default 256 scripts; n <= 0 turns
// all reuse off, and prepared statements then re-analyze on every Exec.
func WithPlanCache(n int) Option {
	return func(o *exec.Options) {
		if n <= 0 {
			o.PlanCache = -1
		} else {
			o.PlanCache = n
		}
	}
}

// WithClusterSim sets the engine's cluster transport (exec.Options.Dist)
// to a simulated GEMS backend cluster: with parts >= 2 partitions, every
// expansion of the Eq. 5 passes across a concrete edge type with no edge
// condition is one BSP superstep, with frontier-exchange statistics (and
// trace spans, under WithTracing); parts < 2 leaves it nil. block selects
// block placement instead of the default hash placement.
func WithClusterSim(parts int, block bool) Option {
	strategy := cluster.Hash
	if block {
		strategy = cluster.Block
	}
	return func(o *exec.Options) { o.Dist = cluster.Simulated(parts, strategy) }
}

// WithLogger attaches a structured logger to the engine's debug paths
// (e.g. one line per simulated-cluster BSP superstep). nil disables
// engine logging (the default).
func WithLogger(l *slog.Logger) Option {
	return func(o *exec.Options) { o.Log = l }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	o := exec.DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return &DB{eng: exec.New(o)}
}

// OpenDurable opens a database backed by a durable store rooted at dir:
// existing state is recovered (snapshot restore, then WAL tail replay)
// and every subsequently committed mutation — DDL, insert/update/delete,
// ingest, select-into — is appended to a CRC-checked write-ahead log.
// fsync controls whether each commit syncs to stable storage before the
// statement is acknowledged (true survives machine crashes; false
// survives process crashes only). Call Close to checkpoint and release
// the store.
func OpenDurable(dir string, fsync bool, opts ...Option) (*DB, error) {
	o := exec.DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	db := &DB{eng: exec.New(o)}
	st, err := storage.Open(dir, fsync, o.Obs)
	if err != nil {
		return nil, err
	}
	if err := db.eng.AttachStore(st); err != nil {
		st.Close()
		return nil, err
	}
	return db, nil
}

// Checkpoint writes a compact snapshot of the current state and
// truncates the WAL; recovery cost is proportional to the WAL tail
// written since the last checkpoint. A no-op for non-durable databases
// (the engine also checkpoints automatically once the WAL grows large).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Close checkpoints (when durable) and releases the underlying store.
// The DB must not be used afterwards. A no-op for non-durable databases.
func (db *DB) Close() error {
	st := db.eng.Store()
	if st == nil {
		return nil
	}
	err := db.eng.Checkpoint()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// Exec runs a GraQL script (one or more statements) and returns one
// result per statement.
func (db *DB) Exec(script string) ([]Result, error) {
	return db.ExecParams(script, nil)
}

// ExecContext is Exec under a context: execution checks ctx
// cooperatively (between statements and inside the parallel sweeps) and
// aborts with ErrCanceled or ErrDeadlineExceeded when it dies.
func (db *DB) ExecContext(ctx context.Context, script string) ([]Result, error) {
	return db.ExecParamsContext(ctx, script, nil)
}

// ExecParams runs a script binding its %name% parameters. Supported
// parameter types: string, int, int64, float64, bool, time.Time.
func (db *DB) ExecParams(script string, params map[string]any) ([]Result, error) {
	return db.ExecParamsContext(context.Background(), script, params)
}

// ExecParamsContext is ExecParams under a context.
func (db *DB) ExecParamsContext(ctx context.Context, script string, params map[string]any) ([]Result, error) {
	vp, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	raw, err := db.eng.ExecScriptContext(ctx, script, vp)
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = Result{r: r}
	}
	return out, err
}

// MustExec is Exec that panics on error; for examples and tests.
func (db *DB) MustExec(script string) []Result {
	res, err := db.Exec(script)
	if err != nil {
		panic(err)
	}
	return res
}

// MustExecParams is ExecParams that panics on error.
func (db *DB) MustExecParams(script string, params map[string]any) []Result {
	res, err := db.ExecParams(script, params)
	if err != nil {
		panic(err)
	}
	return res
}

// Stmt is a prepared statement handle: the script was parsed, compiled
// to the binary IR and (for read-only scripts) semantically analyzed
// once at Prepare; each Exec binds %name% parameters and runs the cached
// artifact. A Stmt is immutable and safe for concurrent use.
type Stmt struct {
	db *DB
	p  *exec.Prepared
}

// Prepare compiles a script into a reusable handle. Parse errors — and,
// for read-only scripts, semantic errors — surface here rather than at
// the first Exec. Statements whose plans are cacheable are planned
// eagerly, so the first Exec already finds its plan stored.
func (db *DB) Prepare(script string) (*Stmt, error) {
	p, err := db.eng.Prepare(script)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, p: p}, nil
}

// Exec runs the prepared script, binding its %name% parameters.
func (s *Stmt) Exec(params map[string]any) ([]Result, error) {
	return s.ExecContext(context.Background(), params)
}

// ExecContext is Exec under a context.
func (s *Stmt) ExecContext(ctx context.Context, params map[string]any) ([]Result, error) {
	vp, err := convertParams(params)
	if err != nil {
		return nil, err
	}
	raw, err := s.db.eng.ExecPreparedContext(ctx, s.p, vp)
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = Result{r: r}
	}
	return out, err
}

// Text returns the canonical rendering of the prepared script.
func (s *Stmt) Text() string { return s.p.Text() }

// PlanCacheStats reports the database's plan reuse counters: hits,
// misses, evictions (capacity plus stale plans dropped) and the
// current number of cached scripts. All zeros when reuse is disabled.
func (db *DB) PlanCacheStats() (hits, misses, evictions, size int64) {
	return db.eng.PlanCacheStats()
}

// IngestCSV loads literal CSV text into the named table through the same
// atomic ingest path as the ingest statement (views derived from the
// table are rebuilt). A convenience for small in-memory datasets.
func IngestCSV(db *DB, table, csv string) error {
	return db.eng.IngestReader(table, strings.NewReader(csv))
}

// Check statically analyses a script (paper §III-A) without executing
// queries or reading data files: parse errors, unknown entities, type
// errors (e.g. comparing a date with a float) and malformed path queries
// are reported against catalog metadata only. The returned error, when
// non-nil, matches ErrStaticAnalysis and unwraps to the individual
// Diagnostic values.
func Check(script string) error { return exec.CheckScript(script) }

// ErrStaticAnalysis is the sentinel all static-analysis errors match
// with errors.Is — parse errors, semantic errors and vet failures alike.
var ErrStaticAnalysis = diag.ErrStaticAnalysis

// Diagnostic is one structured static-analysis finding: a severity, a
// stable GQL#### code, a source span and a human-readable message.
type Diagnostic = diag.Diagnostic

// Severity classifies a Diagnostic as an error or a warning.
type Severity = diag.Severity

// Span locates a Diagnostic in the source text (byte offsets plus
// 1-based line:column).
type Span = diag.Span

// Diagnostics is a position-sorted list of findings as returned by Vet.
type Diagnostics = diag.List

// Vet runs the full static-analysis front-end over a self-contained
// script and returns every finding — errors and lint warnings — sorted
// by source position, never stopping at the first problem. A clean
// script returns an empty list. Unlike Check, Vet reports warnings
// (always-false predicates, comparisons with null, unused labels,
// duplicate projections) that do not block execution.
func Vet(script string) Diagnostics { return exec.VetScript(script) }

// Vet is the package-level Vet against this database's options (the
// script is still analysed standalone: it must declare every table and
// view it uses, and the database's own catalog and data are untouched).
func (db *DB) Vet(script string) Diagnostics { return db.eng.VetScript(script) }

// Stats describes one catalog object (table, vertex type or edge type).
type Stats struct {
	Kind         string
	Name         string
	Count        int
	AvgOutDegree float64
	AvgInDegree  float64
	MaxOutDegree int
	MaxInDegree  int
	SrcType      string
	DstType      string
}

// Stats returns a snapshot of the catalog's object sizes and degree
// statistics — the metadata the GEMS planner consumes.
func (db *DB) Stats() []Stats {
	raw := db.eng.Cat.Stats()
	out := make([]Stats, len(raw))
	for i, s := range raw {
		out[i] = Stats(s)
	}
	return out
}

// MetricsText renders the database's metrics in the Prometheus text
// exposition format; empty when the DB was opened without WithMetrics.
func (db *DB) MetricsText() string { return db.eng.Opts.Obs.PrometheusText() }

// SlowQuery is one retained slow-query log entry.
type SlowQuery = obs.SlowQuery

// SlowQueries returns the retained slow-query log entries, oldest first
// (empty without WithSlowQueryLog).
func (db *DB) SlowQueries() []SlowQuery { return db.eng.Opts.Obs.SlowQueries() }

// TraceTree is one retained trace rendered as a parent/child forest.
type TraceTree = obs.TraceTree

// Traces returns the retained complete trace trees, oldest first (empty
// without WithTracing).
func (db *DB) Traces() []TraceTree { return db.eng.Opts.Obs.Traces() }

// StmtStat is the aggregated statistics of one statement shape: calls,
// failures, rows, scan work, WAL volume and latency, keyed on the
// shape's fingerprint (literals normalized away).
type StmtStat = obs.StmtStat

// Statements returns per-statement-shape statistics, most expensive
// shape (by total execution time) first (empty without WithMetrics).
func (db *DB) Statements() []StmtStat { return db.eng.Opts.Obs.Statements() }

// QueryInfo describes one in-flight statement in the live query table.
type QueryInfo = obs.QueryInfo

// LiveQueries returns the statements executing right now, oldest first
// (empty without WithMetrics).
func (db *DB) LiveQueries() []QueryInfo { return db.eng.Opts.Obs.LiveQueries() }

// CancelQuery cooperatively cancels the in-flight statement with the
// given id (from LiveQueries), reporting whether the id was found. The
// statement's own caller receives ErrCanceled.
func (db *DB) CancelQuery(id uint64) bool { return db.eng.Opts.Obs.CancelQuery(id) }

// Engine exposes the underlying engine for in-module tooling (cmd/,
// benchmarks). It is not part of the stable public API.
func (db *DB) Engine() *exec.Engine { return db.eng }

func convertParams(params map[string]any) (map[string]value.Value, error) {
	if params == nil {
		return nil, nil
	}
	out := make(map[string]value.Value, len(params))
	for k, p := range params {
		switch v := p.(type) {
		case string:
			out[k] = value.NewString(v)
		case int:
			out[k] = value.NewInt(int64(v))
		case int64:
			out[k] = value.NewInt(v)
		case float64:
			out[k] = value.NewFloat(v)
		case bool:
			out[k] = value.NewBool(v)
		case time.Time:
			out[k] = value.NewDate(v.UTC().Unix() / 86400)
		default:
			return nil, fmt.Errorf("graql: unsupported parameter type %T for %%%s%%", p, k)
		}
	}
	return out, nil
}
