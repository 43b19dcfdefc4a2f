package exec

import (
	"fmt"
	"math"

	"graql/internal/ast"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// planTable builds the result of every explain: one row per plan step
// (EXPLAIN) or per traced span (EXPLAIN ANALYZE), numbered from 1 in the
// step column, then action and detail. A select's table adds est_rows, the
// static cardinality bound after the step; an analyze table adds rows and
// time_us, what the span counted and timed. The first failed append
// sticks, like a bufio.Writer's, and result reports it.
type planTable struct {
	t      *table.Table
	est    bool // est_rows column (selects)
	actual bool // rows and time_us columns (explain analyze)
	err    error
}

func newPlanTable(est, actual bool) *planTable {
	schema := table.Schema{
		{Name: "step", Type: value.Int},
		{Name: "action", Type: value.Varchar(32)},
		{Name: "detail", Type: value.Varchar(255)},
	}
	if est {
		schema = append(schema, table.ColumnDef{Name: "est_rows", Type: value.Varchar(32)})
	}
	if actual {
		schema = append(schema,
			table.ColumnDef{Name: "rows", Type: value.Int},
			table.ColumnDef{Name: "time_us", Type: value.Int})
	}
	return &planTable{t: table.MustNew("plan", schema), est: est, actual: actual}
}

// add appends one row; est, rows and us land only in the columns the
// table has. Plan steps go through addf; add itself takes the measured
// rows, the spans of addSpans and DML's total.
func (p *planTable) add(action, detail, est string, rows, us int64) {
	if p.err != nil {
		return
	}
	vals := []value.Value{value.NewInt(int64(p.t.NumRows() + 1)), value.NewString(action), value.NewString(detail)}
	if p.est {
		vals = append(vals, value.NewString(est))
	}
	if p.actual {
		vals = append(vals, value.NewInt(rows), value.NewInt(us))
	}
	p.err = p.t.AppendRow(vals)
}

// addf appends a plan step with a formatted detail. A nil table takes no
// rows: the walk that fills EXPLAIN then only computes the bound.
func (p *planTable) addf(est, action, format string, args ...any) {
	if p != nil {
		p.add(action, fmt.Sprintf(format, args...), est, 0, 0)
	}
}

// addSpans appends one row per span of a private explain-analyze trace;
// the result span carries est, every other span "-".
func (p *planTable) addSpans(spans []*obs.Span, est string) {
	for _, sp := range spans {
		rowEst := "-"
		if sp.Action == "result" {
			rowEst = est
		}
		p.add(sp.Action, sp.Detail, rowEst, sp.Rows(), sp.Duration().Microseconds())
	}
}

func (p *planTable) result() (Result, error) {
	if p.err != nil {
		return Result{}, p.err
	}
	return Result{Kind: ResultTable, Table: p.t}, nil
}

// runExplain renders the execution plan of a select statement instead of
// running it — the planning decisions of §III-B (start step, traversal
// order and direction, index use, fast-path selection) made inspectable.
func (e *Engine) runExplain(s *sema.Select, params map[string]value.Value) (Result, error) {
	p := newPlanTable(true, false)
	if _, err := e.walkSelect(s, params, p); err != nil {
		return Result{}, err
	}
	return p.result()
}

// walkSelect is the one walk over a select's plan. It appends a row per
// step to p, whose est_rows is the running bound from the catalog
// statistics the planner consumes, rendered "lo..hi" ("inf" for
// unbounded), and returns the statement's bound. With p nil it only
// computes that bound, which EXPLAIN ANALYZE prints on its result row.
func (e *Engine) walkSelect(s *sema.Select, params map[string]value.Value, p *planTable) (plan.Interval, error) {
	var iv plan.Interval
	if s.Table != nil {
		iv = walkTableSelect(s, p)
	} else {
		var err error
		if iv, err = e.walkGraphSelect(s, params, p); err != nil {
			return iv, err
		}
	}

	if s.Distinct {
		iv = iv.Distinct()
		p.addf(iv.String(), "distinct", "eliminate duplicate rows")
	}
	for _, k := range s.OrderBy {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		p.addf(iv.String(), "sort", "order by output column %d %s", k.Col+1, dir)
	}
	if s.Top > 0 {
		iv = iv.Top(s.Top)
		p.addf(iv.String(), "top", "keep first %d rows", s.Top)
	}
	if lateProject(s) {
		p.addf(iv.String(), "project", "%d output column(s)", len(s.Items))
	}
	switch s.Into.Kind {
	case ast.IntoTable:
		p.addf(iv.String(), "materialise", "register result as table %s", s.Into.Name)
	case ast.IntoSubgraph:
		// A subgraph result counts vertices, not bindings: every binding
		// contributes at most one vertex per pattern node.
		iv = iv.Expand(float64(maxPatternNodes(s)))
		p.addf(iv.String(), "materialise", "register result as subgraph %s", s.Into.Name)
	}
	return iv, nil
}

func maxPatternNodes(s *sema.Select) int {
	n := 0
	for _, alt := range s.GraphAlts {
		if alt.Pattern != nil && len(alt.Pattern.Nodes) > n {
			n = len(alt.Pattern.Nodes)
		}
	}
	return n
}

// walkTableSelect walks a relational select: an exact scan count,
// loosened by the where clause, collapsed by grouping.
func walkTableSelect(s *sema.Select, p *planTable) plan.Interval {
	iv := plan.Exact(float64(s.Table.NumRows()))
	p.addf(iv.String(), "scan", "table %s (%d rows)", s.Table.Name, s.Table.NumRows())
	if s.Where != nil {
		iv = iv.Filter()
		p.addf(iv.String(), "filter", "%s", s.Where)
	}
	if s.Grouped {
		if len(s.GroupBy) == 0 {
			// A global aggregate emits one row; zero stays possible for an
			// empty (or fully filtered) input.
			iv = plan.Interval{Min: math.Min(iv.Min, 1), Max: 1}
		} else {
			iv = iv.Group()
		}
		p.addf(iv.String(), "group", "group by %d key column(s), %d aggregate(s)", len(s.GroupBy), countAggs(s))
	} else if !lateProject(s) {
		p.addf(iv.String(), "project", "%d output column(s)", len(s.Items))
	}
	return iv
}

func countAggs(s *sema.Select) int {
	n := 0
	for _, it := range s.Items {
		if it.Agg != 0 {
			n++
		}
	}
	return n
}

// walkGraphSelect walks every or-composition term over every concrete
// typing: the typings a variant pattern expands into produce disjoint
// binding sets, so their bounds sum; the terms of an or-composition may
// share rows, so only their upper bounds do. Plan rows come from the
// first typing of each term; a "typings" row carries a variant term's
// sum and a "union" row the or-composition's.
func (e *Engine) walkGraphSelect(s *sema.Select, params map[string]value.Value, p *planTable) (plan.Interval, error) {
	var total plan.Interval
	for ai, alt := range s.GraphAlts {
		prep := e.prepAltForEstimate(alt, params)
		if len(s.GraphAlts) > 1 {
			p.addf("-", "alternative", "or-composition term %d", ai+1)
		}
		pat := alt.Pattern
		typings := 0
		var altIv plan.Interval
		err := e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
			m, err := e.newMatcher(pat, nt, et, prep.nodeCond, prep.edgeCond)
			if err != nil {
				return err
			}
			ivs, fin := typingIntervals(m, prep.nodeCond)
			typings++
			if typings > 1 {
				altIv = altIv.Add(fin)
				return nil
			}
			altIv = fin
			r, _ := m.routeFor(s, alt.Proj)
			p.addf(fin.String(), "strategy", "%s route", r)
			est := &catalogEstimator{m: m, nodeCond: prep.nodeCond}
			for i, v := range m.order {
				action, detail := m.describeVisit(i)
				if v.Via < 0 {
					p.addf(ivs[i].String(), action, "%s (est. %.0f candidates)", detail, est.NodeCount(v.Node))
				} else {
					p.addf(ivs[i].String(), action, "%s (fan-out %.2f)", detail, est.EdgeFanout(v.Via, v.Forward))
				}
			}
			for d, list := range m.verifyAt {
				for _, pe := range list {
					kind := "edge existence"
					if pe.Regex != nil {
						kind = "regex reachability"
					}
					p.addf(fin.String(), "verify", "check %s between steps after position %d", kind, d+1)
				}
			}
			return nil
		})
		if err != nil {
			return total, err
		}
		if typings > 1 {
			p.addf(altIv.String(), "typings", "variant steps expand to %d concrete typings (Eq. 11)", typings)
		}
		if ai == 0 {
			total = altIv
		} else {
			total = total.Alt(altIv)
		}
	}
	if len(s.GraphAlts) > 1 {
		p.addf(total.String(), "union", "or-composition of %d terms (Eq. 9–10)", len(s.GraphAlts))
	}
	return total, nil
}

func stepName(pat *sema.Pattern, nt []*graph.VertexType, node int) string {
	n := pat.Nodes[node]
	if len(n.Labels) > 0 {
		return n.Labels[0]
	}
	if nt[node] != nil {
		return nt[node].Name
	}
	return fmt.Sprintf("step%d", node)
}
