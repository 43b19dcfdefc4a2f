package exec

import (
	"math"

	"graql/internal/expr"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/value"
)

// Static cardinality bounds (plan.Interval) computed from the catalog
// statistics the planner already consumes: vertex counts, degree
// distribution maxima, seed sizes. walkSelect (explain.go) threads them
// through the plan: EXPLAIN renders the running bound after every plan
// step as est_rows; EXPLAIN ANALYZE reports the statement's bound next
// to the actual row count so estimate accuracy is observable per query
// (the Berlin suite asserts containment).

// prepAltForEstimate binds an alternative's conditions for estimation.
// Unbound parameters are fine here: the raw conditions estimate as
// generic filters.
func (e *Engine) prepAltForEstimate(alt *sema.GraphAlt, params map[string]value.Value) *preparedAlt {
	prep, err := e.prepareAlt(alt, params)
	if err == nil {
		return prep
	}
	prep = &preparedAlt{alt: alt,
		nodeCond: make([]expr.Expr, len(alt.Pattern.Nodes)),
		edgeCond: make([]expr.Expr, len(alt.Pattern.Edges))}
	for i, n := range alt.Pattern.Nodes {
		prep.nodeCond[i] = n.Cond
	}
	for i, pe := range alt.Pattern.Edges {
		prep.edgeCond[i] = pe.Cond
	}
	return prep
}

// typingIntervals computes the running cardinality bound after each
// visit of one concrete typing's traversal order, plus the final bound
// after cross-step (deferred) conditions and verification edges.
func typingIntervals(m *matcher, nodeCond []expr.Expr) ([]plan.Interval, plan.Interval) {
	ivs := make([]plan.Interval, len(m.order))
	var iv plan.Interval
	for i, v := range m.order {
		if v.Via < 0 {
			n := nodeInterval(m, nodeCond, v.Node)
			if i == 0 {
				iv = n
			} else {
				// A disconnected component binds independently: the
				// cartesian combination the GQL1009 lint warns about.
				iv = iv.Cross(n)
			}
		} else {
			iv = iv.Expand(edgeMaxFanout(m, v.Via, v.Forward))
			if nodeCond[v.Node] != nil || m.seeds[v.Node] != nil {
				iv = iv.Filter()
			}
		}
		ivs[i] = iv
	}
	final := iv
	if len(m.deferred) > 0 {
		final = final.Filter()
	}
	for _, list := range m.verifyAt {
		if len(list) > 0 {
			final = final.Filter()
			break
		}
	}
	return ivs, final
}

// nodeInterval bounds the set a scan-start node is enumerated over:
// exactly the type's instance count, narrowed by a seed subgraph, loosened
// down to zero by a step condition — the node's own, or any other step's
// condition or seed, which the reducer's backward pass culls the start by.
func nodeInterval(m *matcher, nodeCond []expr.Expr, node int) plan.Interval {
	count := float64(m.nodeType[node].Count())
	iv := plan.Exact(count)
	if s := m.seeds[node]; s != nil {
		iv = plan.UpTo(math.Min(count, float64(s.Count())))
	}
	for i := range nodeCond {
		if nodeCond[i] != nil || m.seeds[i] != nil {
			return iv.Filter()
		}
	}
	return iv
}

// edgeMaxFanout bounds the per-row fan-out of traversing pattern edge
// `edge`: the observed maximum degree in the traversal direction, or the
// regex fragment's closure bound.
func edgeMaxFanout(m *matcher, edge int, forward bool) float64 {
	pe := m.pat.Edges[edge]
	if pe.Regex != nil {
		return regexMaxFanout(pe.Regex, forward)
	}
	et := m.edgeType[edge]
	if et == nil {
		return math.Inf(1)
	}
	if forward {
		return float64(et.OutDegreeStats().Max)
	}
	return float64(et.InDegreeStats().Max)
}

// regexMaxFanout bounds the landing set of a path-regular-expression
// fragment per bound start vertex: the per-repetition fan-out is the
// product of the fragment's step degree maxima, summed over every
// admitted repetition count. Unbounded repetition and variant step
// specs have no static bound — exactly the shapes the GQL1008 lint
// flags when the pattern carries no anchoring condition.
func regexMaxFanout(r *sema.Regex, forward bool) float64 {
	if r.Max < 0 {
		return math.Inf(1)
	}
	per := 1.0
	for _, st := range r.Steps {
		if st.Edge == nil {
			return math.Inf(1)
		}
		out := st.Out
		if !forward {
			out = !out // travelling the fragment in reverse flips each step
		}
		if out {
			per *= float64(st.Edge.OutDegreeStats().Max)
		} else {
			per *= float64(st.Edge.InDegreeStats().Max)
		}
	}
	total := 0.0
	f := math.Pow(per, float64(r.Min))
	for k := r.Min; k <= r.Max; k++ {
		total += f
		f *= per
	}
	return total
}
