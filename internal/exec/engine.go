// Package exec implements the GEMS-style execution engine for GraQL: DDL
// execution and view building (paper Eq. 1–2), atomic CSV ingest
// (§II-A2), and the path-query matcher — parallel forward-expansion /
// backward-culling sweeps over the bidirectional edge indexes (Eq. 5,
// §III-B) plus binding enumeration for results-as-tables (Fig. 13), label
// semantics (Eq. 6–8), multi-path composition (Eq. 9–10), variant steps
// (Eq. 11) and path regular expressions (Fig. 10).
package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graql/internal/ast"
	"graql/internal/catalog"
	"graql/internal/cluster"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/storage"
	"graql/internal/table"
	"graql/internal/value"
)

// Options configure an Engine.
type Options struct {
	// Workers is the parallelism degree for frontier expansion, binding
	// enumeration and the parallel relational operators; 0 means
	// GOMAXPROCS.
	Workers int
	// ParallelThreshold is the minimum input row count before the
	// relational operators with a parallel form (filter and a full
	// order-by) take the morsel-parallel path; 0 means the table layer's
	// measured defaults (65 536 rows for a filter, table.DefaultParThreshold
	// for an order-by, 16 384 rows). Inputs below it run the serial
	// operators, whose results are byte-for-byte those of the
	// pre-parallel engine.
	ParallelThreshold int
	// ReverseIndexes controls whether edge types build reverse CSR
	// indexes (paper §III-B builds them "when memory space ... is
	// available"; the E3 ablation turns them off).
	ReverseIndexes bool
	// BaseDir anchors relative ingest file paths.
	BaseDir string
	// CheckOnly runs static analysis and DDL scaffolding without
	// touching data files: ingest statements are validated but skipped.
	// Used to statically check whole scripts (paper §III-A).
	CheckOnly bool
	// NoFold disables constant folding of resolved predicates. Folding is
	// exact (it never changes results or hides runtime errors), so this
	// exists for A/B property tests and plan inspection only.
	NoFold bool
	// FileOpener overrides how ingest resolves file paths (tests and the
	// server use this to sandbox file access). nil uses the OS
	// filesystem rooted at BaseDir.
	FileOpener func(path string) (io.ReadCloser, error)
	// FileCreator overrides how output statements create result files.
	// nil uses the OS filesystem rooted at BaseDir.
	FileCreator func(path string) (io.WriteCloser, error)
	// Obs is the observability registry the engine reports into: query
	// counters, scan/traversal totals, per-statement latency histograms
	// and the slow-query log. nil disables metrics (the hot-path cost is
	// then a handful of nil checks).
	Obs *obs.Registry
	// PlanCache sets the capacity of the script cache: the LRU of
	// compiled read-only scripts, keyed on exact script text, through
	// which a repeated text skips lexer→parser→sema→plan, re-planning
	// only when something a plan read has changed. 0 means the default capacity
	// (256 scripts); negative disables all reuse — no script is cached
	// and prepared handles re-analyze on every execute.
	PlanCache int
	// IRVerify selects how often analyzed select plans (fresh and
	// cache-hit) are re-checked by the plan verifier: IRVerifyAlways (also
	// what empty means — tests and library use get full verification with
	// no setup) checks every one, IRVerifySample every 64th (the server
	// default), IRVerifyOff none. IR that arrives over the wire is
	// verified in every mode (DecodeIR).
	IRVerify string
	// Dist, when non-nil, runs path queries on the GEMS backend cluster
	// (internal/cluster) behind this transport: simulated partitions
	// (cluster.Simulated) or worker processes over sockets
	// (cluster.DialTCP), whose partition count and placement govern. Every
	// expansion of the Eq. 5 passes across a concrete edge type with no
	// edge condition is one BSP superstep, with exchange statistics and
	// per-superstep trace spans; step conditions and binding enumeration
	// stay on the coordinator. A worker failure surfaces as ErrPartial.
	Dist cluster.Transport
	// Log, when non-nil, receives the engine's structured lines: a debug
	// line per cluster BSP superstep and an error line per failed
	// automatic checkpoint. nil disables engine logging.
	Log *slog.Logger
}

// DefaultOptions returns the standard engine configuration.
func DefaultOptions() Options {
	return Options{Workers: 0, ReverseIndexes: true}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Engine executes GraQL scripts against a catalog.
type Engine struct {
	// Cat is the live catalog. Writers build from it under its writer
	// mutex; a script reads the version it pins (view).
	Cat  *catalog.Catalog
	Opts Options

	// met caches metric series resolved from Opts.Obs (all nil without a
	// registry). trace/parent are non-nil only on traced shallow copies
	// (WithTrace for server request tracing, runExplainAnalyze's shadow
	// engine); matcher and relational operators append operator spans to
	// the trace, nested under parent when it is set. ctx is non-nil only
	// on context-bound copies (WithContext); long-running loops poll it.
	met    engineMetrics
	trace  *obs.Trace
	parent *obs.Span
	ctx    context.Context

	// acct is the per-statement accounting record (nil without a
	// registry): execStmtID installs one on the executing fork, the sweep
	// and WAL paths feed it, observeStmt folds it into the statement's
	// observability event.
	acct *stmtAcct

	// scripts is the LRU of compiled read-only scripts, shared across
	// every fork (nil when Options.PlanCache < 0).
	scripts *scriptCache

	// view is the catalog version the running statement reads: the one
	// its script pinned (nil outside a script, which reads the current
	// version). scope holds the script's own results the statement reads.
	view  *catalog.Catalog
	scope scope

	// store is the attached durability layer (nil runs in-memory only).
	// replay is true while recovery replays the snapshot and WAL tail; it
	// suppresses re-logging of replayed statements.
	store  *storage.Store
	replay bool
}

// New returns an engine over a fresh catalog.
func New(opts Options) *Engine {
	return &Engine{
		Cat: catalog.New(), Opts: opts, met: newEngineMetrics(opts.Obs),
		scripts: newScriptCache(opts.PlanCache, opts.Obs),
	}
}

// ResultKind classifies a statement result.
type ResultKind uint8

// Result kinds.
const (
	ResultNone ResultKind = iota
	ResultTable
	ResultSubgraph
)

// Result is the outcome of one statement: DDL/ingest yield a status
// message; selects yield a table or a named subgraph.
type Result struct {
	Kind     ResultKind
	Message  string
	Table    *table.Table
	Subgraph *graph.Subgraph
}

// ExecStmt statically analyses and executes a single parsed statement
// (vet scaffolding, programmatic ASTs) as a transient compiled statement.
func (e *Engine) ExecStmt(st ast.Stmt, params map[string]value.Value) (Result, error) {
	var cs compiledStmt
	cs.init(st, "")
	return e.execStmtID(&cs, params, e.Cat.Pin(), nil)
}

// ExecParsed executes an already parsed script (decoded IR, a
// programmatic AST) as a transient compiled script: nothing is cached,
// results and errors are those of ExecScript.
func (e *Engine) ExecParsed(script *ast.Script, params map[string]value.Value) ([]Result, error) {
	return e.execCompiled(compile(script.Stmts, ""), params)
}

// execStmtID executes one compiled statement, recording per-statement
// metrics and the slow-query log when the engine has an observability
// registry. On a traced engine (WithTrace) each statement gets a
// "statement" span and all operator, sweep and cluster spans of its
// execution nest beneath it. The statement runs on a fork that reads cat,
// the version its script pinned, and the results of its script that its
// locals name: done holds those of the statements before it, by index.
func (e *Engine) execStmtID(cs *compiledStmt, params map[string]value.Value, cat *catalog.Catalog, done []Result) (Result, error) {
	run := e.fork(e.trace, e.parent)
	run.view, run.scope = cat, scope{cs.locals, done}
	if e.met.reg == nil && e.trace == nil {
		return run.execStmt(cs, params)
	}
	var sp *obs.Span
	if e.trace != nil {
		sp = e.opSpan("statement", cs.detail())
		sp.SetAttr("kind", stmtKind(cs.st))
		run.parent = sp
	}
	// With a registry, the statement gets an accounting record and a live
	// query table entry, and runs under its own cancelable context so
	// CancelQuery(id) can kill exactly this statement.
	var acct *stmtAcct
	var cancel context.CancelFunc
	if e.met.reg != nil {
		acct = &stmtAcct{id: &cs.id}
		base := e.ctx
		if base == nil {
			base = context.Background()
		}
		acct.queueWait = queueWaitFrom(base)
		run.ctx, cancel = context.WithCancel(base)
		run.acct = acct
		acct.live = e.met.reg.StartQuery(cs.id.fp, cs.id.norm, e.traceID(), cancel)
	}
	start := time.Now()
	res, err := run.execStmt(cs, params)
	elapsed := time.Since(start)
	if cancel != nil {
		acct.live.Finish()
		cancel()
	}
	var rows int64
	switch {
	case res.Kind == ResultTable && res.Table != nil:
		rows = int64(res.Table.NumRows())
	case res.Kind == ResultSubgraph && res.Subgraph != nil:
		rows = int64(res.Subgraph.NumVertices())
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
			// Cancellation shows up in /debug/traces as an aborted span.
			switch {
			case errors.Is(err, ErrDeadlineExceeded):
				sp.SetAttr("aborted", "deadline")
			case errors.Is(err, ErrCanceled):
				sp.SetAttr("aborted", "canceled")
			}
		}
		sp.AddRows(rows)
		sp.End()
	}
	e.met.observeStmt(cs.st, acct, elapsed, rows, err, e.traceID())
	return res, err
}

// execStmt is execStmtID without instrumentation, on the statement's
// fork. Selects, output and ingest read the pinned version and take no
// lock, so concurrent scripts read side by side and file IO holds
// nothing. Everything that changes the catalog — DDL, ingest, DML, an
// into result — goes through write.
func (e *Engine) execStmt(cs *compiledStmt, params map[string]value.Value) (Result, error) {
	if err := e.canceled(); err != nil {
		return Result{}, err
	}
	switch st := cs.st.(type) {
	case *ast.Select:
		return e.execSelect(cs, params)
	case *ast.CreateTable, *ast.CreateVertex, *ast.CreateEdge:
		return e.execDDL(st, params)
	case *ast.Insert, *ast.Update, *ast.Delete:
		if !e.Opts.CheckOnly {
			return e.execDML(st, params)
		}
	}
	analyzed, err := e.analyze(e.version(), cs.st)
	if err != nil {
		return Result{}, err
	}
	switch s := analyzed.(type) {
	case *sema.Ingest:
		return e.runIngest(s)
	case *sema.Output:
		return e.runOutput(s)
	case *sema.Insert:
		return Result{Message: fmt.Sprintf("checked insert into %s (skipped)", s.Table.Name)}, nil
	case *sema.Update:
		return Result{Message: fmt.Sprintf("checked update of %s (skipped)", s.Table.Name)}, nil
	case *sema.Delete:
		return Result{Message: fmt.Sprintf("checked delete from %s (skipped)", s.Table.Name)}, nil
	}
	return Result{}, fmt.Errorf("graql: unsupported statement %T", analyzed)
}

// analyze analyses a statement against cat — a reader's pinned version,
// or the live catalog for a writer, which holds the writer mutex — and
// the script's own results the statement reads.
func (e *Engine) analyze(cat *catalog.Catalog, st ast.Stmt) (sema.Stmt, error) {
	an := &sema.Analyzer{Cat: cat, NoFold: e.Opts.NoFold}
	if len(e.scope.locals) > 0 {
		an.Locals = &e.scope
	}
	return an.Analyze(st)
}

// version returns the catalog version e reads: the one its script pinned,
// else the current one.
func (e *Engine) version() *catalog.Catalog { return cmp.Or(e.view, e.Cat.Pin()) }

// scope resolves names to the results that earlier statements of a
// script produced (DESIGN.md §10): a statement reads its own script's
// result, not whichever result of that name was published last.
type scope struct {
	locals []plan.Local
	done   []Result // the script's results so far, by statement index
}

// Table returns the script's result table of that name, or nil.
func (s *scope) Table(name string) *table.Table { return s.result(name, false).Table }

// Subgraph returns the script's result subgraph of that name, or nil.
func (s *scope) Subgraph(name string) *graph.Subgraph { return s.result(name, true).Subgraph }

func (s *scope) result(name string, sub bool) Result {
	for _, l := range s.locals {
		if l.Subgraph == sub && strings.EqualFold(l.Name, name) {
			return s.done[l.At]
		}
	}
	return Result{}
}

// execSelect runs a select against the pinned version and then
// publishes its into result, if any. Results stay published for later
// scripts; this script's later statements read them through their scope.
func (e *Engine) execSelect(cs *compiledStmt, params map[string]value.Value) (Result, error) {
	sel, err := e.planSelect(cs)
	if err != nil {
		return Result{}, err
	}
	res, err := e.runSelect(sel, params, cs.id.script)
	if err != nil || sel.Explain {
		return res, err // an explain is a plan description; nothing to publish
	}
	switch sel.Into.Kind {
	case ast.IntoTable:
		err = e.register(res.Table)
	case ast.IntoSubgraph:
		// Named subgraphs index the types of the live view graph and are
		// dropped once a write replaces one of them; they are
		// deliberately not durable.
		err = e.write(nil, nil, &change{Change: catalog.Change{Subgraph: res.Subgraph}}, nil)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// change is one write built aside: what Publish installs, and the rows a
// DML statement affected, which the commit span counts.
type change struct {
	catalog.Change
	rows int64
}

// write is the engine's one write path (DESIGN.md §10). Holding the
// writer mutex, build (when non-nil) fills c in aside, reading the live
// catalog, which only this mutex's holder can change. The change is then
// appended to the WAL, and only after that published as the next version
// with one epoch bump: a write that fails to log is never seen,
// and a write that is seen survives a crash. A change left empty (an
// explain) publishes nothing. Logging and publication each open a span
// ("wal", "commit"), as build's phases do.
//
// The WAL records st with its params when st is set (DDL, DML): replay
// re-executes the statement, deterministically. Otherwise it records the
// change's Table as materialised rows: with a Graph, an ingest's rows the
// views are re-derived from; without, rows no view reads (a result table,
// or an ingest into a table no view reads), published alone. A change
// with neither (a named subgraph) is not durable.
func (e *Engine) write(st ast.Stmt, params map[string]value.Value, c *change, build func() error) error {
	e.Cat.BeginWrite()
	defer e.Cat.EndWrite()
	if build != nil {
		if err := build(); err != nil {
			return err
		}
	}
	if c.Change == (catalog.Change{}) {
		return nil
	}
	if err := e.log(st, params, c); err != nil {
		return err
	}
	sp := e.opSpan("commit", commitDetail(c.Change))
	e.Cat.Publish(c.Change)
	sp.AddRows(c.rows)
	sp.End()
	e.maybeCheckpoint()
	return nil
}

// commitDetail names what publishing c installs, for the commit span.
func commitDetail(c catalog.Change) string {
	switch {
	case c.Table != nil && c.Graph != nil:
		return "swap table version, install views"
	case c.Table != nil:
		return "swap table version"
	case c.Graph != nil:
		return "install views"
	}
	return "register subgraph"
}

// register publishes a result table — live, replayed from the WAL or
// restored from a snapshot — durable as its rows, since re-running a
// parallel, order-sensitive query on replay could diverge. It decides
// GQL0108 under the writer mutex, where no declaration can slip in.
func (e *Engine) register(t *table.Table) error {
	return e.write(nil, nil, &change{Change: catalog.Change{Table: t}}, func() error {
		return (&sema.Analyzer{Cat: e.Cat}).CheckIntoTable(ast.Into{Name: t.Name})
	})
}

// execDDL analyses a create statement and publishes what it creates: a
// table, or a copy of the view graph plus the new type. Type ids count
// the published types, so a failed create consumes none.
func (e *Engine) execDDL(st ast.Stmt, params map[string]value.Value) (Result, error) {
	var msg string
	var c change
	err := e.write(st, params, &c, func() error {
		analyzed, err := e.analyze(e.Cat, st)
		if err != nil {
			return err
		}
		switch s := analyzed.(type) {
		case *sema.CreateTable:
			c.Table, err = table.New(s.Name, s.Schema)
			msg = fmt.Sprintf("created table %s", s.Name)
		case *sema.CreateVertex:
			var vt *graph.VertexType
			if vt, err = graph.BuildVertexType(len(e.Cat.Graph().VertexTypes()), s.Decl.Name, s.Base, s.KeyCols, vertexPred(s)); err == nil {
				c.Graph, c.Vertex = e.Cat.Graph().Clone(), s.Decl
				err = c.Graph.AddVertexType(vt)
				msg = fmt.Sprintf("created vertex %s (%d instances)", vt.Name, vt.Count())
			}
		case *sema.CreateEdge:
			var et *graph.EdgeType
			if et, err = e.buildEdgeType(s, len(e.Cat.Graph().EdgeTypes())); err == nil {
				c.Graph, c.Edge = e.Cat.Graph().Clone(), s.Decl
				err = c.Graph.AddEdgeType(et)
				msg = fmt.Sprintf("created edge %s (%d instances)", et.Name, et.Count())
			}
		}
		return err
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Message: msg}, nil
}

// CheckScript statically analyses a script without executing queries or
// reading data files: the full §III-A static analysis over the catalog
// metadata. It executes DDL scaffolding (on empty tables) so later
// statements resolve, and registers result placeholders for into-clauses.
func CheckScript(src string) error {
	eng := New(Options{CheckOnly: true, ReverseIndexes: true})
	_, err := eng.ExecScript(src, nil)
	return err
}

// vertexPred returns the row predicate of a vertex declaration's where
// clause (nil when unconditional), evaluated against the resolved base
// table. Builds and patches use it.
func vertexPred(s *sema.CreateVertex) graph.RowPred {
	if s.Where == nil {
		return nil
	}
	base := s.Base
	where := s.Where
	return func(row uint32) (bool, error) {
		v, err := where.Eval(singleTableEnv{t: base, row: row})
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.Bool(), nil
	}
}

// runIngest implements the atomic ingest command: the CSV file is parsed
// into a staging table, holding no lock; only if every record parses is
// the table replaced and every derived vertex/edge view maintained (paper
// §II-A2: ingest triggers "the generation of associated vertex and edge
// instances derived from the table").
func (e *Engine) runIngest(s *sema.Ingest) (Result, error) {
	if e.Opts.CheckOnly {
		return Result{Message: fmt.Sprintf("checked ingest into %s (skipped)", s.Table.Name)}, nil
	}
	rc, err := e.openFile(s.File)
	if err != nil {
		return Result{}, fmt.Errorf("graql: ingest %s: %w", s.Table.Name, err)
	}
	defer rc.Close()
	stage, err := table.LoadCSV(s.Table, rc)
	if err != nil {
		return Result{}, err
	}
	if err := e.replaceTable(stage); err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("ingested %d rows into %s", stage.NumRows(), s.Table.Name)}, nil
}

// replaceTable publishes a wholly new version of a table, maintaining the
// views it feeds aside (none: the table is published alone) under the
// delta of a replacement: every old row is gone and every new row changed.
// An ingest is durable as materialised rows, not as the statement: the
// source file may move or change between the ingest and a replay.
func (e *Engine) replaceTable(stage *table.Table) error {
	var c change
	return e.write(nil, nil, &c, func() error {
		d := &tableDelta{rows: *graph.Replaced(e.Cat.Table(stage.Name).NumRows(), stage.NumRows())}
		g, _, err := e.maintainViews(stage, d, false)
		c.Change = catalog.Change{Table: stage, Graph: g}
		return err
	})
}

// IngestReader loads CSV data from r into the named table through the
// same path as the ingest statement, maintaining derived views. It lets
// embedders ingest in-memory data without a file.
func (e *Engine) IngestReader(tableName string, r io.Reader) error {
	t := e.Cat.Table(tableName)
	if t == nil {
		return fmt.Errorf("graql: unknown table %s", tableName)
	}
	stage, err := table.LoadCSV(t, r)
	if err != nil {
		return err
	}
	return e.replaceTable(stage)
}

func (e *Engine) openFile(path string) (io.ReadCloser, error) {
	if e.Opts.FileOpener != nil {
		return e.Opts.FileOpener(path)
	}
	if !filepath.IsAbs(path) && e.Opts.BaseDir != "" {
		path = filepath.Join(e.Opts.BaseDir, path)
	}
	return os.Open(path)
}

// runOutput writes a table to a CSV file — the paper's "eventual output
// to files" on the shared filesystem (§III). The table version it
// resolved is immutable.
func (e *Engine) runOutput(s *sema.Output) (Result, error) {
	if e.Opts.CheckOnly {
		return Result{Message: fmt.Sprintf("checked output of %s (skipped)", s.Table.Name)}, nil
	}
	wc, err := e.createFile(s.File)
	if err != nil {
		return Result{}, fmt.Errorf("graql: output %s: %w", s.Table.Name, err)
	}
	if err := table.WriteCSV(s.Table, wc); err != nil {
		wc.Close()
		return Result{}, fmt.Errorf("graql: output %s: %w", s.Table.Name, err)
	}
	if err := wc.Close(); err != nil {
		return Result{}, fmt.Errorf("graql: output %s: %w", s.Table.Name, err)
	}
	return Result{Message: fmt.Sprintf("wrote %d rows of %s to %s", s.Table.NumRows(), s.Table.Name, s.File)}, nil
}

func (e *Engine) createFile(path string) (io.WriteCloser, error) {
	if e.Opts.FileCreator != nil {
		return e.Opts.FileCreator(path)
	}
	if !filepath.IsAbs(path) && e.Opts.BaseDir != "" {
		path = filepath.Join(e.Opts.BaseDir, path)
	}
	return os.Create(path)
}

// edgeDependsOn reports whether an edge declaration reads the swapped
// table or a maintained vertex type.
func edgeDependsOn(d *ast.CreateEdge, touched map[string]*vertexMaint, swapped string) bool {
	if touched[strings.ToLower(d.SrcType)] != nil || touched[strings.ToLower(d.DstType)] != nil {
		return true
	}
	return sema.EdgeReadsTable(d, swapped)
}

func equalFold(a, b string) bool { return strings.EqualFold(a, b) }

// singleTableEnv evaluates expressions whose refs all target source 0 of
// one table.
type singleTableEnv struct {
	t   *table.Table
	row uint32
}

func (e singleTableEnv) Lookup(_, col int) value.Value { return e.t.Value(e.row, col) }

// evalBool evaluates a boolean condition, mapping NULL to false.
func evalBool(cond expr.Expr, env expr.Env) (bool, error) {
	v, err := cond.Eval(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
