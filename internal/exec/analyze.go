package exec

import (
	"fmt"
	"strings"
	"time"

	"graql/internal/obs"
	"graql/internal/sema"
	"graql/internal/value"
)

// stripExplainPrefix removes the leading explain [analyze] keywords from
// a statement's text, yielding the script text a plain execution of the
// same statement is cached under.
func stripExplainPrefix(src string) string {
	s := strings.TrimSpace(src)
	for _, kw := range []string{"explain", "analyze"} {
		if len(s) > len(kw) && strings.EqualFold(s[:len(kw)], kw) {
			switch s[len(kw)] {
			case ' ', '\t', '\r', '\n':
				s = strings.TrimLeft(s[len(kw):], " \t\r\n")
			}
		}
	}
	return s
}

// runExplainAnalyze executes the query for real with per-operator
// instrumentation and renders one row per operator span: the EXPLAIN
// table shape plus actual row counts and wall time. Like EXPLAIN, the
// statement's into-clause result is not registered. Operator times are
// inclusive of nested operators and summed across parallel workers, so a
// step's time can exceed the query's wall clock.
func (e *Engine) runExplainAnalyze(s *sema.Select, params map[string]value.Value, text string) (Result, error) {
	// A shallow engine copy carries the trace through execution without
	// widening any signatures; parent stays nil so operator spans land
	// flat on this private trace (one plan row each), not nested under a
	// statement span.
	tr := &obs.Trace{}
	shadow := e.fork(tr, nil)

	// Report whether a plain execution of this statement would find its
	// plan stored right now. EXPLAIN ANALYZE itself always re-instruments
	// (its plan rows need a private trace); the answer comes from the plan
	// slot of the script-cache entry for the explain-stripped text, tested
	// as planSelect tests it.
	if e.scripts != nil {
		detail := "miss — shape not cached, or what it read has changed"
		if p := e.scripts.get(stripExplainPrefix(text), true); p != nil && len(p.stmts) == 1 {
			cs := &p.stmts[0]
			if sel := cs.plan.Load(); sel != nil && e.fresh(sel, e.source(cs)) {
				detail = "hit — shape cached and fresh"
			}
		}
		tr.Span("plan cache", detail).Record(0, 0)
	}

	start := time.Now()
	var (
		res Result
		err error
	)
	if s.Table != nil {
		res, err = shadow.runTableSelect(s, params)
	} else {
		res, err = shadow.runGraphSelect(s, params)
	}
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	// The final span reports the query's true output cardinality and wall
	// time, so the totals line always matches the plain query.
	switch res.Kind {
	case ResultSubgraph:
		tr.Span("result", fmt.Sprintf("subgraph %s: %d vertices, %d edges",
			res.Subgraph.Name, res.Subgraph.NumVertices(), res.Subgraph.NumEdges())).
			Record(int64(res.Subgraph.NumVertices()), elapsed)
	default:
		tr.Span("result", fmt.Sprintf("%d row(s)", res.Table.NumRows())).
			Record(int64(res.Table.NumRows()), elapsed)
	}

	// The static cardinality bound sits next to the actual row count on
	// the result row, so estimate accuracy (est_rows ∋ rows) is
	// observable per query without a separate EXPLAIN. It is EXPLAIN's
	// walk, run with no rows to fill.
	est, err := e.walkSelect(s, params, nil)
	if err != nil {
		return Result{}, err
	}
	p := newPlanTable(true, true)
	p.addSpans(tr.Spans(), est.String())
	return p.result()
}
