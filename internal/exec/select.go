package exec

import (
	"fmt"
	"slices"
	"time"

	"graql/internal/ast"
	"graql/internal/bitmap"
	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// runSelect executes an analyzed select. text is the statement's own
// text, which EXPLAIN ANALYZE probes the script cache with.
func (e *Engine) runSelect(s *sema.Select, params map[string]value.Value, text string) (Result, error) {
	if e.Opts.CheckOnly {
		return e.checkOnlySelect(s)
	}
	if s.Explain {
		if s.Analyze {
			return e.runExplainAnalyze(s, params, text)
		}
		return e.runExplain(s, params)
	}
	if s.Table != nil {
		return e.runTableSelect(s, params)
	}
	return e.runGraphSelect(s, params)
}

// checkOnlySelect returns result placeholders for execSelect to publish,
// so that later statements of a statically checked script resolve
// (§III-A checking needs only metadata).
func (e *Engine) checkOnlySelect(s *sema.Select) (Result, error) {
	res := Result{Message: "checked select"}
	switch s.Into.Kind {
	case ast.IntoTable:
		t, err := table.New(s.Into.Name, s.OutSchema)
		if err != nil {
			return Result{}, err
		}
		res.Table = t
	case ast.IntoSubgraph:
		res.Subgraph = graph.NewSubgraph(s.Into.Name)
	}
	return res, nil
}

func astAggToTable(f ast.AggFunc) table.AggFunc {
	switch f {
	case ast.AggCount:
		return table.AggCount
	case ast.AggSum:
		return table.AggSum
	case ast.AggAvg:
		return table.AggAvg
	case ast.AggMin:
		return table.AggMin
	case ast.AggMax:
		return table.AggMax
	}
	panic("graql: not an aggregate")
}

// runTableSelect is late-materialising (DESIGN.md §16): the compiled
// where clause yields a selection vector over the source table, group-by /
// distinct / order-by / top-n pass (table, selection) pairs along, and the
// surviving rows of the projected columns are gathered once, at the end.
func (e *Engine) runTableSelect(s *sema.Select, params map[string]value.Value) (Result, error) {
	t := s.Table
	if e.tracing() {
		e.opSpan("scan", fmt.Sprintf("table %s", t.Name)).Record(int64(t.NumRows()), 0)
	}

	rows := table.AllRows(t)
	if s.Where != nil {
		where, err := expr.BindParams(s.Where, params)
		if err != nil {
			return Result{}, err
		}
		fanOut, t0 := 0, time.Now()
		if rows, err = table.CompileFilter(t, where).Select(rows, e.tablePar(&fanOut)); err != nil {
			return Result{}, err
		}
		if e.tracing() {
			e.opSpan("filter", parDetail(s.Where.String(), fanOut)).
				Record(int64(rows.Len()), time.Since(t0))
		}
	}
	opStart := time.Now()

	// cols maps every output column to the column of rows' table holding
	// it; the projection itself happens in finishTable's gather.
	cols, schema := make([]int, len(s.Items)), s.OutSchema
	switch {
	case s.Grouped:
		var aggs []table.AggSpec
		for _, it := range s.Items {
			if it.Agg != ast.AggNone {
				aggs = append(aggs, table.AggSpec{Func: astAggToTable(it.Agg), Col: it.Col, Name: it.Name})
			}
		}
		grouped, err := rows.GroupBy(resultName(s), s.GroupBy, aggs)
		if err != nil {
			return Result{}, err
		}
		// The group-by emits keys then aggregates, typed by kind alone;
		// the select list may interleave and rename them.
		aggPos := len(s.GroupBy)
		schema = make(table.Schema, len(s.Items))
		for i, it := range s.Items {
			if it.Agg == ast.AggNone {
				cols[i] = slices.Index(s.GroupBy, it.Col)
			} else {
				cols[i] = aggPos
				aggPos++
			}
			schema[i] = table.ColumnDef{Name: it.Name, Type: grouped.Schema()[cols[i]].Type}
		}
		rows = table.AllRows(grouped)
		if e.tracing() {
			e.opSpan("group", fmt.Sprintf("group by %d key column(s), %d aggregate(s)", len(s.GroupBy), countAggs(s))).
				Record(int64(rows.Len()), time.Since(opStart))
		}
	case !lateProject(s):
		// Computed items are evaluated row by row into a fresh table.
		fresh, err := e.projectComputed(s, rows, params)
		if err != nil {
			return Result{}, err
		}
		for i := range cols {
			cols[i] = i
		}
		rows = table.AllRows(fresh)
		if e.tracing() {
			e.opSpan("project", fmt.Sprintf("%d output column(s)", len(s.Items))).
				Record(int64(rows.Len()), time.Since(opStart))
		}
	default:
		for i, it := range s.Items {
			cols[i] = it.Col
		}
	}

	out, err := e.finishTable(rows, cols, schema, s, s.Distinct)
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

// projectComputed materialises a select list that holds computed
// expressions: every item of every selected row is evaluated and appended.
func (e *Engine) projectComputed(s *sema.Select, rows table.Rows, params map[string]value.Value) (*table.Table, error) {
	fresh, err := table.New(resultName(s), s.OutSchema)
	if err != nil {
		return nil, err
	}
	boundExprs := make([]expr.Expr, len(s.Items))
	for i, it := range s.Items {
		if boundExprs[i], err = expr.BindParams(it.Expr, params); err != nil {
			return nil, err
		}
	}
	row := make([]value.Value, len(s.Items))
	for i, n := 0, rows.Len(); i < n; i++ {
		env := singleTableEnv{t: s.Table, row: rows.At(i)}
		for c, it := range s.Items {
			if it.Col >= 0 {
				row[c] = s.Table.Value(env.row, it.Col)
				continue
			}
			if row[c], err = boundExprs[c].Eval(env); err != nil {
				return nil, err
			}
		}
		if err := fresh.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// finishTable applies distinct (when the rows may repeat one another) /
// order by / top n to the selection and gathers the result table: output
// column i is column cols[i] of rows' table, defined by schema[i]. Order
// by with top n runs as one bounded-heap operator. A plain column
// projection of a table select happens here, in the gather, and is
// reported as the plan's last operator.
func (e *Engine) finishTable(rows table.Rows, cols []int, schema table.Schema, s *sema.Select, distinct bool) (*table.Table, error) {
	if distinct {
		t0 := time.Now()
		rows = rows.Distinct(cols)
		if e.tracing() {
			e.opSpan("distinct", "eliminate duplicate rows").Record(int64(rows.Len()), time.Since(t0))
		}
	}
	top := s.Top
	if len(s.OrderBy) > 0 {
		keys := make([]table.SortKey, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = table.SortKey{Col: cols[k.Col], Desc: k.Desc}
		}
		in, fanOut := rows.Len(), 0
		t0 := time.Now()
		var err error
		if rows, err = rows.OrderBy(keys, top, e.tablePar(&fanOut)); err != nil {
			return nil, err
		}
		if e.tracing() {
			detail := fmt.Sprintf("order by %d key(s)", len(keys))
			if top > 0 && top < in {
				detail += fmt.Sprintf(", top-%d heap", top)
			} else {
				detail = parDetail(detail, fanOut)
			}
			e.opSpan("sort", detail).Record(int64(rows.Len()), time.Since(t0))
		}
	}
	if top > 0 {
		t0 := time.Now()
		rows = rows.Top(top)
		if e.tracing() {
			e.opSpan("top", fmt.Sprintf("keep first %d rows", top)).Record(int64(rows.Len()), time.Since(t0))
		}
	}
	t0 := time.Now()
	out := rows.Materialize(resultName(s), cols, schema)
	if e.tracing() && lateProject(s) {
		e.opSpan("project", fmt.Sprintf("%d output column(s)", len(cols))).Record(int64(out.NumRows()), time.Since(t0))
	}
	return out, nil
}

// resultName is the name of a select's result table.
func resultName(s *sema.Select) string {
	if s.Into.Name != "" {
		return s.Into.Name
	}
	return "result"
}

// lateProject reports whether s is a table select whose projection is a
// plain choice of columns, which the final gather performs.
func lateProject(s *sema.Select) bool {
	return s.Table != nil && !s.Grouped && !slices.ContainsFunc(s.Items, func(it sema.Item) bool { return it.Col < 0 })
}

// preparedAlt is one or-alternative with parameter-bound conditions.
type preparedAlt struct {
	alt      *sema.GraphAlt
	nodeCond []expr.Expr
	edgeCond []expr.Expr
}

func (e *Engine) prepareAlt(alt *sema.GraphAlt, params map[string]value.Value) (*preparedAlt, error) {
	p := &preparedAlt{alt: alt}
	pat := alt.Pattern
	conds := make([]expr.Expr, len(pat.Nodes)+len(pat.Edges))
	p.nodeCond, p.edgeCond = conds[:len(pat.Nodes):len(pat.Nodes)], conds[len(pat.Nodes):]
	for i, n := range pat.Nodes {
		c, err := expr.BindParams(n.Cond, params)
		if err != nil {
			return nil, err
		}
		p.nodeCond[i] = c
	}
	for i, pe := range pat.Edges {
		c, err := expr.BindParams(pe.Cond, params)
		if err != nil {
			return nil, err
		}
		p.edgeCond[i] = c
	}
	return p, nil
}

// seedsFor resolves per-node seed subgraph restrictions under one typing.
func (e *Engine) seedsFor(pat *sema.Pattern, nt []*graph.VertexType) ([]*bitmap.Bitmap, error) {
	seeds := make([]*bitmap.Bitmap, len(pat.Nodes))
	for i, n := range pat.Nodes {
		if n.Seed == "" {
			continue
		}
		sub := sema.ResolveSubgraph(e.version(), &e.scope, n.Seed)
		if sub == nil {
			return nil, &diag.Diagnostic{Severity: diag.SevError, Code: diag.UnknownSubgraph, Msg: "unknown subgraph " + n.Seed}
		}
		if b, ok := sub.Vertices[nt[i]]; ok {
			seeds[i] = b
		} else {
			seeds[i] = bitmap.New(nt[i].Count()) // empty: type absent from seed
		}
	}
	return seeds, nil
}

func (e *Engine) runGraphSelect(s *sema.Select, params map[string]value.Value) (Result, error) {
	if s.Into.Kind == ast.IntoSubgraph {
		sub := graph.NewSubgraph(s.Into.Name)
		for _, alt := range s.GraphAlts {
			prep, err := e.prepareAlt(alt, params)
			if err != nil {
				return Result{}, err
			}
			if err := e.runAltSubgraph(prep, s, sub); err != nil {
				return Result{}, err
			}
		}
		return Result{Kind: ResultSubgraph, Subgraph: sub,
			Message: fmt.Sprintf("subgraph %s: %d vertices, %d edges", sub.Name, sub.NumVertices(), sub.NumEdges())}, nil
	}

	out, keyed := (*table.Table)(nil), false
	for _, alt := range s.GraphAlts {
		prep, err := e.prepareAlt(alt, params)
		if err != nil {
			return Result{}, err
		}
		if out, keyed, err = e.runAltTable(prep, out, s); err != nil {
			return Result{}, err
		}
	}
	if out == nil {
		var err error
		if out, err = table.New(resultName(s), s.OutSchema); err != nil {
			return Result{}, err
		}
	}
	cols := make([]int, out.NumCols())
	for i := range cols {
		cols[i] = i
	}
	out, err := e.finishTable(table.AllRows(out), cols, s.OutSchema, s, s.Distinct && !(keyed && len(s.GraphAlts) == 1))
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

// runAltTable answers one alternative on the route routeFor picks per
// typing and returns out with its rows appended (Fig. 13: the matching
// subgraph as a table, one row per binding — multiplicities preserved,
// which is what makes the paper's Q2 feature-count work). An enumerated
// binding is kept as the ids its projected steps hold, and a projected
// column is one typed gather of the step's attribute column, sharing its
// dictionary: the first typing of the first alternative to match anything
// is the result table (out == nil until then), later ones append onto it
// column-wise. keyed: one typing put rows in, a reduced set projecting its
// type's key, so they are distinct (one vertex per key).
func (e *Engine) runAltTable(prep *preparedAlt, out *table.Table, s *sema.Select) (_ *table.Table, keyed bool, _ error) {
	pat := prep.alt.Pattern
	proj := prep.alt.Proj
	// slots lists each binding slot the projection reads once; item i reads
	// slots[slotOf[i]].
	var slots []int
	slotOf := make([]int, len(proj))
	for i, item := range proj {
		if slotOf[i] = slices.Index(slots, item.Source); slotOf[i] < 0 {
			slotOf[i] = len(slots)
			slots = append(slots, item.Source)
		}
	}
	parts := 0
	err := e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
		m, err := e.newMatcher(pat, nt, et, prep.nodeCond, prep.edgeCond)
		if err != nil {
			return err
		}
		// attrsOf is where a slot's attributes are stored, and the row of
		// each id.
		attrsOf := func(slot int) (*table.Table, []uint32) {
			if slot < len(pat.Nodes) {
				return m.nodeType[slot].AttrRows()
			}
			return m.edgeType[slot-len(pat.Nodes)].AttrRows()
		}
		rows := make([][]uint32, len(slots)) // per slot, the attribute row of each output row
		r, p := m.routeFor(s, proj)
		if r != routeEnumerate { // p is the one slot
			if rows[0], err = m.answer(p, r); err != nil || len(rows[0]) == 0 {
				return err
			}
		} else {
			// A shard's bindings are kept as their slots back to back; shards
			// concatenate in order, so results are deterministic. Each shard's
			// slice header fills a cache line of its own: a worker writes it
			// once per binding, and its neighbours belong to other workers.
			type shardIDs struct {
				ids []uint32
				_   [40]byte
			}
			shards := make([]shardIDs, m.maxShards())
			err = m.matchAll(func(shard int, b []uint32) error {
				for _, slot := range slots {
					shards[shard].ids = append(shards[shard].ids, b[slot])
				}
				return nil
			})
			n := 0
			for _, sh := range shards {
				n += len(sh.ids) / len(slots)
			}
			if err != nil || n == 0 {
				return err
			}
			for k, slot := range slots {
				_, rowOf := attrsOf(slot)
				rows[k] = make([]uint32, 0, n)
				for _, sh := range shards {
					for j := k; j < len(sh.ids); j += len(slots) {
						rows[k] = append(rows[k], rowOf[sh.ids[j]])
					}
				}
			}
		}
		cols := make([]table.Column, len(proj))
		for i, item := range proj {
			attrs, _ := attrsOf(item.Source)
			cols[i] = attrs.Col(item.Col).Gather(rows[slotOf[i]])
		}
		parts, keyed = parts+1, r == routeReduceOnly && len(nt[p].KeyCols) == 1 && slices.ContainsFunc(proj,
			func(it sema.GraphProjItem) bool { return it.Col == nt[p].KeyCols[0] })
		if out == nil {
			out = table.FromColumns(resultName(s), s.OutSchema, cols)
			return nil
		}
		return out.AppendColumns(cols)
	})
	return out, parts == 1 && keyed, err
}
