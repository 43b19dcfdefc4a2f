package exec

import (
	"fmt"

	"graql/internal/ast"
	"graql/internal/graph"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// runExplain renders the execution plan of a select statement instead of
// running it — the planning decisions of §III-B (start step, traversal
// order and direction, index use, fast-path selection) made inspectable.
// The result is a table (step integer, action varchar, detail varchar,
// est_rows varchar); est_rows is the static cardinality bound after the
// step, rendered as "lo..hi" ("inf" for unbounded), from the same
// catalog statistics the planner consumes.
func (e *Engine) runExplain(s *sema.Select, params map[string]value.Value) (Result, error) {
	out := table.MustNew("plan", table.Schema{
		{Name: "step", Type: value.Int},
		{Name: "action", Type: value.Varchar(32)},
		{Name: "detail", Type: value.Varchar(255)},
		{Name: "est_rows", Type: value.Varchar(32)},
	})
	step := 0
	add := func(est, action, format string, args ...any) error {
		step++
		return out.AppendRow([]value.Value{
			value.NewInt(int64(step)),
			value.NewString(action),
			value.NewString(fmt.Sprintf(format, args...)),
			value.NewString(est),
		})
	}

	var iv plan.Interval
	var err error
	if s.Table != nil {
		iv, err = e.explainTableSelect(s, add)
	} else {
		iv, err = e.explainGraphSelect(s, params, add)
	}
	if err != nil {
		return Result{}, err
	}

	if s.Distinct {
		iv = iv.Distinct()
		if err := add(iv.String(), "distinct", "eliminate duplicate rows"); err != nil {
			return Result{}, err
		}
	}
	if len(s.OrderBy) > 0 {
		for _, k := range s.OrderBy {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			if err := add(iv.String(), "sort", "order by output column %d %s", k.Col+1, dir); err != nil {
				return Result{}, err
			}
		}
	}
	if s.Top > 0 {
		iv = iv.Top(s.Top)
		if err := add(iv.String(), "top", "keep first %d rows", s.Top); err != nil {
			return Result{}, err
		}
	}
	if lateProject(s) {
		if err := add(iv.String(), "project", "%d output column(s)", len(s.Items)); err != nil {
			return Result{}, err
		}
	}
	switch s.Into.Kind {
	case ast.IntoTable:
		if err := add(iv.String(), "materialise", "register result as table %s", s.Into.Name); err != nil {
			return Result{}, err
		}
	case ast.IntoSubgraph:
		iv = iv.Expand(float64(maxPatternNodes(s)))
		if err := add(iv.String(), "materialise", "register result as subgraph %s", s.Into.Name); err != nil {
			return Result{}, err
		}
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

func (e *Engine) explainTableSelect(s *sema.Select, add func(string, string, string, ...any) error) (plan.Interval, error) {
	iv := plan.Exact(float64(s.Table.NumRows()))
	if err := add(iv.String(), "scan", "table %s (%d rows)", s.Table.Name, s.Table.NumRows()); err != nil {
		return iv, err
	}
	if s.Where != nil {
		iv = iv.Filter()
		if err := add(iv.String(), "filter", "%s", s.Where); err != nil {
			return iv, err
		}
	}
	if s.Grouped {
		full := estimateTableSelect(s)
		iv = full
		if err := add(iv.String(), "group", "group by %d key column(s), %d aggregate(s)", len(s.GroupBy), countAggs(s)); err != nil {
			return iv, err
		}
	} else if !lateProject(s) {
		if err := add(iv.String(), "project", "%d output column(s)", len(s.Items)); err != nil {
			return iv, err
		}
	}
	return iv, nil
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

func (e *Engine) explainGraphSelect(s *sema.Select, params map[string]value.Value, add func(string, string, string, ...any) error) (plan.Interval, error) {
	var total plan.Interval
	for ai, alt := range s.GraphAlts {
		prep := e.prepAltForEstimate(alt, params)
		if len(s.GraphAlts) > 1 {
			if err := add("-", "alternative", "or-composition term %d", ai+1); err != nil {
				return total, err
			}
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
			if typings == 1 {
				altIv = fin
			} else {
				altIv = altIv.Add(fin)
				return nil // report the plan rows for the first typing only
			}
			r, _ := m.routeFor(s, alt.Proj)
			if err := add(fin.String(), "strategy", "%s route", r); err != nil {
				return err
			}
			est := &catalogEstimator{m: m, nodeCond: prep.nodeCond}
			for i, v := range m.order {
				action, detail := m.describeVisit(i)
				if v.Via < 0 {
					err = add(ivs[i].String(), action, "%s (est. %.0f candidates)", detail, est.NodeCount(v.Node))
				} else {
					err = add(ivs[i].String(), action, "%s (fan-out %.2f)", detail, est.EdgeFanout(v.Via, v.Forward))
				}
				if err != nil {
					return err
				}
			}
			for d, list := range m.verifyAt {
				for _, pe := range list {
					kind := "edge existence"
					if pe.Regex != nil {
						kind = "regex reachability"
					}
					if err := add(fin.String(), "verify", "check %s between steps after position %d", kind, d+1); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return total, err
		}
		if typings > 1 {
			if err := add(altIv.String(), "typings", "variant steps expand to %d concrete typings (Eq. 11)", typings); err != nil {
				return total, err
			}
		}
		if ai == 0 {
			total = altIv
		} else {
			total = total.Alt(altIv)
		}
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
