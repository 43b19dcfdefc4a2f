package exec

import (
	"strconv"

	"graql/internal/ast"
	"graql/internal/obs"
	"graql/internal/table"
)

// This file wires hierarchical request tracing through the engine. A
// traced engine is a shallow copy (fork) carrying a trace and a parent
// span; no execution signature widens. Operator code calls opSpan, which
// nests spans under the current statement span during server-traced
// execution and emits flat top-level spans for EXPLAIN ANALYZE's private
// plan trace. Everything is nil-safe, so untraced engines pay only a
// couple of nil checks.

// WithTrace returns a shallow engine copy whose statement execution
// appends spans to tr, nested under parent (nil for top-level spans).
// The copy shares the catalog and metric series with the receiver; it is
// cheap enough to create per request.
func (e *Engine) WithTrace(tr *obs.Trace, parent *obs.Span) *Engine {
	return e.fork(tr, parent)
}

// fork is the internal form of WithTrace.
func (e *Engine) fork(tr *obs.Trace, parent *obs.Span) *Engine {
	c := *e
	c.trace = tr
	c.parent = parent
	return &c
}

// tracing reports whether this engine records spans.
func (e *Engine) tracing() bool { return e.trace != nil }

// traceID returns the engine's trace id (zero when untraced).
func (e *Engine) traceID() obs.TraceID { return e.trace.ID() }

// opSpan opens one operator span: a child of the statement span when the
// engine runs under one (server-traced execution), a top-level span on
// the trace otherwise (EXPLAIN ANALYZE's flat plan trace). Nil-safe —
// with no trace it returns nil, which is itself inert.
func (e *Engine) opSpan(action, detail string) *obs.Span {
	if e.parent != nil {
		return e.parent.Child(action, detail)
	}
	return e.trace.Span(action, detail)
}

// runSweep executes fn over each shard index on the one shard pool
// (table.Par.Run) with up to `workers` goroutines and returns the first
// error. The engine's context is polled at every shard boundary, so a
// canceled sweep stops scheduling work and returns the structured abort
// error promptly (shards also poll internally via wstate.poll for long
// per-shard loops). The engine's metrics count the sweep and its shards
// and track worker utilisation through the graql_parallel_active_workers
// gauge. Under a statement span the sweep gets a span of its own;
// EXPLAIN ANALYZE's flat trace intentionally omits sweep spans so its
// plan table keeps one row per operator.
func (e *Engine) runSweep(what, name string, shards, workers int, fn func(shard int) error) error {
	e.acct.noteWorkers(workers)
	sp := e.sweepSpan(what, name, shards, workers)
	err := table.Par{Workers: workers, Poll: pollOf(e.ctx), OnParallel: e.met.sweep}.Run(shards, fn)
	sp.End()
	return err
}

// sweepSpan opens the span of one parallel sweep, labelled what followed by
// name; nil (inert) unless the engine runs under a statement span, and only
// then is the label put together.
func (e *Engine) sweepSpan(what, name string, shards, workers int) *obs.Span {
	if e.parent == nil {
		return nil
	}
	sp := e.parent.Child("sweep", what+name)
	sp.SetAttr("shards", strconv.Itoa(shards))
	sp.SetAttr("workers", strconv.Itoa(workers))
	return sp
}

// stmtDetail renders a statement for span labels, truncated so trace
// payloads stay bounded.
func stmtDetail(st ast.Stmt) string {
	s := st.String()
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}
