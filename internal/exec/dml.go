package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"graql/internal/ast"
	"graql/internal/catalog"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// The DML operators (insert, update, delete) take the engine's one write
// path (Engine.write), so morsel-parallel readers never observe a
// half-applied write:
//
//  1. Holding the writer mutex, the statement is analysed and a complete
//     new version of the target table plus, when views read it, a new view
//     graph are built aside. Published tables and views are immutable, so
//     concurrent readers keep using the current versions undisturbed.
//  2. The statement is appended to the WAL and fsynced (when a store is
//     attached) — before publication, so an acknowledged write is durable.
//  3. Under a brief write lock, the new table and graph are installed and
//     the catalog epoch bumps. Readers that started before finish on the
//     old snapshot; readers that start after see the new one; nobody sees
//     a mix.
//
// View maintenance is by delta for every verb (DESIGN.md §10): each
// build-aside states what it did to the table as a tableDelta — the old →
// new row map, the new or rewritten rows, the written columns — and
// maintainViews re-anchors, patches or (two documented cases) rebuilds
// each view the table feeds.

// dmlBuild is the outcome of the build-aside phase of one DML statement.
type dmlBuild struct {
	verb     string // "insert", "update" or "delete"
	table    *table.Table
	graph    *graph.Graph
	affected int
}

// tableDelta is what a DML statement tells view maintenance about the
// table version it built.
type tableDelta struct {
	// written marks the columns an update assigns; nil means whole rows
	// came or went (insert, delete).
	written []bool
	// rows maps the old version's rows onto the new one's and lists the
	// new or rewritten rows.
	rows graph.Delta
}

// writes reports whether the statement wrote any of the columns.
func (d *tableDelta) writes(cols []int) bool {
	if d.written == nil {
		return true
	}
	for _, c := range cols {
		if d.written[c] {
			return true
		}
	}
	return false
}

// The view-maintenance actions, as explain and explain analyze name them.
const (
	carryVertex   = "carry-vertex"   // re-anchored on the new table version, all else shared
	patchVertex   = "patch-vertex"   // dead rows' vertices removed, changed rows re-keyed
	rebuildVertex = "rebuild-vertex" // built from scratch
	carryEdge     = "carry-edge"     // re-anchored on the new endpoint types, edge set shared
	patchEdge     = "patch-edge"     // dead edges removed, changed instances joined back in
	rebuildEdge   = "rebuild-edge"   // built from scratch
)

// maintNote names the action a dry maintenance pass decides for one view.
type maintNote struct {
	action string
	name   string
}

// execDML runs one mutating statement through the write path described
// above. Every phase of the write opens a span: the verb's build, one per
// maintained view, the WAL append and the commit. EXPLAIN ANALYZE runs
// the write on a fork carrying a private flat trace, as a select's does,
// and renders those spans; a server-traced write shows the same spans
// under its statement span.
func (e *Engine) execDML(st ast.Stmt, params map[string]value.Value) (Result, error) {
	if !explainAnalyze(st) {
		return e.writeDML(st, params)
	}
	tr := &obs.Trace{}
	if _, err := e.fork(tr, nil).writeDML(st, params); err != nil {
		return Result{}, err
	}
	return dmlAnalyzeResult(tr.Spans())
}

// explainAnalyze reports whether a DML statement is an explain analyze.
func explainAnalyze(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.Insert:
		return s.Explain && s.Analyze
	case *ast.Update:
		return s.Explain && s.Analyze
	case *ast.Delete:
		return s.Explain && s.Analyze
	}
	return false
}

// writeDML is execDML's write: the statement's plan table for a plain
// explain, its status message otherwise.
func (e *Engine) writeDML(st ast.Stmt, params map[string]value.Value) (Result, error) {
	var b *dmlBuild
	var plan Result
	var c change
	err := e.write(st, params, &c, func() error {
		analyzed, err := e.analyze(e.Cat, st)
		if err != nil {
			return err
		}
		switch s := analyzed.(type) {
		case *sema.Insert:
			if s.Explain && !s.Analyze {
				plan, err = e.explainInsert(s)
			} else {
				b, err = e.buildInsert(s, params)
			}
		case *sema.Update:
			if s.Explain && !s.Analyze {
				plan, err = e.explainUpdate(s)
			} else {
				b, err = e.buildUpdate(s, params)
			}
		case *sema.Delete:
			if s.Explain && !s.Analyze {
				plan, err = e.explainDelete(s)
			} else {
				b, err = e.buildDelete(s, params)
			}
		default:
			err = fmt.Errorf("graql: unsupported statement %T", analyzed)
		}
		if b != nil {
			c.Change = catalog.Change{Table: b.table, Graph: b.graph}
			c.rows = int64(b.affected)
		}
		return err
	})
	if err != nil {
		return Result{}, err
	}
	if b == nil {
		return plan, nil
	}
	e.met.noteMutation(b.verb, b.affected)
	return Result{Message: dmlMessage(b.verb, b.affected, b.table.Name)}, nil
}

func dmlMessage(verb string, n int, tbl string) string {
	switch verb {
	case "insert":
		return fmt.Sprintf("inserted %d row(s) into %s", n, tbl)
	case "update":
		return fmt.Sprintf("updated %d row(s) in %s", n, tbl)
	default:
		return fmt.Sprintf("deleted %d row(s) from %s", n, tbl)
	}
}

// --- build-aside: new table versions ---------------------------------------

func (e *Engine) buildInsert(s *sema.Insert, params map[string]value.Value) (*dmlBuild, error) {
	sp := e.verbSpan("insert", s.Table)
	defer sp.End()
	schema := s.Table.Schema()
	nt := s.Table.Clone()
	vals := make([]value.Value, len(schema))
	d := &tableDelta{}
	for _, row := range s.Rows {
		for c := range vals {
			vals[c] = value.NewNull(schema[c].Type.Kind)
		}
		for vi, ex := range row {
			ex, err := expr.BindParams(ex, params)
			if err != nil {
				return nil, err
			}
			v, err := ex.Eval(nil)
			if err != nil {
				return nil, err
			}
			col := s.Cols[vi]
			cv, err := convertStore(schema[col].Type, v)
			if err != nil {
				return nil, fmt.Errorf("graql: insert into %s column %s: %w", s.Table.Name, schema[col].Name, err)
			}
			vals[col] = cv
		}
		d.rows.Changed = append(d.rows.Changed, uint32(nt.NumRows()))
		if err := nt.AppendRow(vals); err != nil {
			return nil, err
		}
	}
	return e.finishBuild(sp, "insert", nt, d, len(s.Rows))
}

// verbSpan opens the span a DML verb's build runs under, the build of
// table t's new version and of the views over it; nil (inert) on an
// untraced engine, and only on a traced one is the label put together.
func (e *Engine) verbSpan(verb string, t *table.Table) *obs.Span {
	if !e.tracing() {
		return nil
	}
	return e.opSpan(verb, "table "+t.Name)
}

// finishBuild maintains the views over the new table version nt and wraps
// the build-aside outcome, counting the affected rows on the verb's span.
func (e *Engine) finishBuild(sp *obs.Span, verb string, nt *table.Table, d *tableDelta, affected int) (*dmlBuild, error) {
	g, _, err := e.maintainViews(nt, d, false)
	if err != nil {
		return nil, err
	}
	sp.AddRows(int64(affected))
	return &dmlBuild{verb: verb, table: nt, graph: g, affected: affected}, nil
}

func (e *Engine) buildUpdate(s *sema.Update, params map[string]value.Value) (*dmlBuild, error) {
	sp := e.verbSpan("update", s.Table)
	defer sp.End()
	schema := s.Table.Schema()
	where, err := expr.BindParams(s.Where, params)
	if err != nil {
		return nil, err
	}
	hit, err := matchingRows(s.Table, where)
	if err != nil {
		return nil, fmt.Errorf("graql: update %s: %w", s.Table.Name, err)
	}
	d := &tableDelta{written: make([]bool, len(schema))}
	d.rows.Changed = hit
	cols := make([]int, len(s.Sets))
	sets := make([]expr.Expr, len(s.Sets))
	for i, sc := range s.Sets {
		if sets[i], err = expr.BindParams(sc.E, params); err != nil {
			return nil, err
		}
		cols[i] = sc.Col
		d.written[sc.Col] = true
	}
	// Set expressions read the row's pre-update values (standard SQL
	// semantics: "set a = b, b = a" swaps), so every new cell is computed
	// before the written columns are copied and patched.
	vals := make([][]value.Value, len(hit))
	for i, r := range hit {
		env := singleTableEnv{t: s.Table, row: r}
		vals[i] = make([]value.Value, len(sets))
		for j, ex := range sets {
			v, err := ex.Eval(env)
			if err != nil {
				return nil, fmt.Errorf("graql: update %s: %w", s.Table.Name, err)
			}
			if vals[i][j], err = convertStore(schema[cols[j]].Type, v); err != nil {
				return nil, fmt.Errorf("graql: update %s column %s: %w", s.Table.Name, schema[cols[j]].Name, err)
			}
		}
	}
	nt, err := s.Table.Patch(cols, hit, vals)
	if err != nil {
		return nil, err
	}
	return e.finishBuild(sp, "update", nt, d, len(hit))
}

func (e *Engine) buildDelete(s *sema.Delete, params map[string]value.Value) (*dmlBuild, error) {
	sp := e.verbSpan("delete", s.Table)
	defer sp.End()
	where, err := expr.BindParams(s.Where, params)
	if err != nil {
		return nil, err
	}
	hit, err := matchingRows(s.Table, where)
	if err != nil {
		return nil, fmt.Errorf("graql: delete from %s: %w", s.Table.Name, err)
	}
	d := &tableDelta{}
	d.rows.Remap = make([]uint32, s.Table.NumRows())
	keep := make([]uint32, 0, len(d.rows.Remap)-len(hit))
	for r, h := uint32(0), 0; r < uint32(len(d.rows.Remap)); r++ {
		if h < len(hit) && hit[h] == r {
			d.rows.Remap[r] = graph.NoVertex
			h++
			continue
		}
		d.rows.Remap[r] = uint32(len(keep))
		keep = append(keep, r)
	}
	nt := s.Table.Gather(s.Table.Name, keep)
	return e.finishBuild(sp, "delete", nt, d, len(hit))
}

// matchingRows is the where scan of update and delete: the rows of t, in
// ascending order, on which the bound condition is TRUE, found through the
// same compiled filter a select uses. A nil condition matches every row.
func matchingRows(t *table.Table, where expr.Expr) ([]uint32, error) {
	rows := table.AllRows(t)
	if where != nil {
		var err error
		if rows, err = table.CompileFilter(t, where).Select(rows, table.Par{}); err != nil {
			return nil, err
		}
	}
	hit := make([]uint32, rows.Len())
	for i := range hit {
		hit[i] = rows.At(i)
	}
	return hit, nil
}

// convertStore coerces an evaluated value into a column's type: NULL to a
// typed NULL, int widening into float, string parsing into date (so bound
// parameters behave like literals). Anything else is a runtime type error
// (static analysis already rejects what it can see).
func convertStore(dst value.Type, v value.Value) (value.Value, error) {
	switch {
	case v.IsNull():
		return value.NewNull(dst.Kind), nil
	case v.Kind() == dst.Kind:
		return v, nil
	case dst.Kind == value.KindFloat && v.Kind() == value.KindInt:
		return value.NewFloat(v.Float()), nil
	case dst.Kind == value.KindDate && v.Kind() == value.KindString:
		return value.Parse(v.Str(), value.Date)
	}
	return value.Value{}, fmt.Errorf("cannot store %s value into %s column", v.Kind(), dst.Kind)
}

// --- build-aside: view maintenance by delta ---------------------------------

// vertexMaint is how one vertex type fared in a maintenance pass, for the
// edge types over it.
type vertexMaint struct {
	action string
	old    *graph.VertexType
	// delta tells how the VIDs moved (patch), or which vertices had an
	// attribute rewritten (carry of a one-to-one type; filled on demand).
	delta *graph.Delta
}

// maintainViews derives the view graph that corresponds to replacing the
// catalog's current version of newTbl.Name with newTbl, without touching
// the live catalog (the caller holds the writer mutex). Only declarations
// that read the table, directly or through a vertex type maintained here,
// are re-resolved (newTbl overlaid, an edge against its new endpoints); the
// new graph is a Clone with their new types in their slots, or nil when no
// declaration reads the table. d states how newTbl differs from the
// version it replaces; nil means the whole table was replaced (ingest) and
// every view it feeds is rebuilt. A real pass opens one span per view it
// maintains, named by the action and counting the new view's instances.
// With dry set nothing is built and no span opens: the notes name the
// action each view would take, decided exactly as a real pass decides it.
func (e *Engine) maintainViews(newTbl *table.Table, d *tableDelta, dry bool) (*graph.Graph, []maintNote, error) {
	old := e.Cat.Graph()
	// newTbl overlays the catalog's version as a script's own result would.
	an := &sema.Analyzer{Cat: e.Cat, NoFold: e.Opts.NoFold, Locals: &scope{[]plan.Local{{Name: newTbl.Name}}, []Result{{Table: newTbl}}}}
	var g *graph.Graph // the new graph, cloned at the first view maintained
	var notes []maintNote
	touched := map[string]*vertexMaint{}
	for _, decl := range e.Cat.VertexDecls() {
		if !equalFold(decl.From, newTbl.Name) {
			continue
		}
		s, err := an.Resolve(decl, old)
		if err != nil {
			return nil, nil, fmt.Errorf("graql: maintaining vertex %s: %w", decl.Name, err)
		}
		sv := s.(*sema.CreateVertex)
		m := &vertexMaint{action: vertexAction(sv, d), old: old.VertexType(decl.Name)}
		touched[strings.ToLower(decl.Name)] = m
		if dry {
			notes = append(notes, maintNote{m.action, decl.Name})
			continue
		}
		vt, err := e.maintainVertex(decl.Name, m, sv, d)
		if err != nil {
			return nil, nil, err
		}
		if g == nil {
			g = old.Clone()
		}
		g.PutVertexType(vt)
	}
	for _, decl := range e.Cat.EdgeDecls() {
		if !edgeDependsOn(decl, touched, newTbl.Name) {
			continue
		}
		s, err := an.Resolve(decl, cmp.Or(g, old))
		if err != nil {
			return nil, nil, fmt.Errorf("graql: maintaining edge %s: %w", decl.Name, err)
		}
		se := s.(*sema.CreateEdge)
		p := planEdge(se, newTbl, d, touched)
		if dry {
			notes = append(notes, maintNote{p.action, decl.Name})
			continue
		}
		et, err := e.maintainEdge(decl.Name, p, se, old.EdgeType(decl.Name))
		if err != nil {
			return nil, nil, err
		}
		if g == nil {
			g = old.Clone()
		}
		g.PutEdgeType(et)
	}
	return g, notes, nil
}

// maintainVertex builds the new version of the vertex view name under a
// span named by m's action, counting the view's instances. A patch that
// flips the type between one-to-one and many-to-one becomes a rebuild, and
// the span is renamed before it ends.
func (e *Engine) maintainVertex(name string, m *vertexMaint, sv *sema.CreateVertex, d *tableDelta) (*graph.VertexType, error) {
	sp := e.opSpan(m.action, name)
	defer sp.End()
	var vt *graph.VertexType
	var err error
	if m.action == patchVertex {
		var ok bool
		if vt, m.delta, ok, err = graph.PatchVertexType(m.old, sv.Base, &d.rows, vertexPred(sv)); err != nil {
			return nil, err
		} else if !ok {
			m.action = rebuildVertex
			if sp != nil {
				sp.Action = rebuildVertex
			}
		}
	}
	switch m.action {
	case carryVertex:
		vt = graph.ReanchorVertexType(m.old, sv.Base)
	case rebuildVertex:
		if vt, err = buildVertexType(sv, m.old.ID); err != nil {
			return nil, err
		}
	}
	sp.AddRows(int64(vt.Count()))
	return vt, nil
}

// maintainEdge builds the new version of the edge view name, currently
// et, under a span named by p's action, counting the view's instances.
func (e *Engine) maintainEdge(name string, p edgePlan, se *sema.CreateEdge, et *graph.EdgeType) (*graph.EdgeType, error) {
	sp := e.opSpan(p.action, name)
	defer sp.End()
	src, dst := se.Sources[0].Vtx, se.Sources[1].Vtx
	var err error
	switch p.action {
	case carryEdge:
		var attrs *table.Table
		if p.regather {
			attrs = se.Sources[se.AttrSource].Tbl
		}
		et = graph.ReanchorEdgeType(et, src, dst, attrs)
	case patchEdge:
		var added []graph.Edge
		if added, err = deltaEdges(se, p.deltas); err != nil {
			return nil, err
		}
		var attrs *table.Table
		var attrD *graph.Delta
		if se.AttrSource >= 0 {
			attrs, attrD = se.Sources[se.AttrSource].Tbl, p.deltas[se.AttrSource]
		}
		et = graph.PatchEdgeType(et, src, dst, p.deltas[0], p.deltas[1], attrD, added, attrs)
	case rebuildEdge:
		if et, err = e.buildEdgeType(se, et.ID); err != nil {
			return nil, err
		}
	}
	sp.AddRows(int64(et.Count()))
	return et, nil
}

// vertexAction decides how a vertex type over the written table is
// maintained: an update that writes neither a key column nor a column its
// where clause reads leaves identity and membership of every vertex alone;
// anything else patches. A patch that flips the type between one-to-one
// and many-to-one is found out while patching and becomes a rebuild.
func vertexAction(sv *sema.CreateVertex, d *tableDelta) string {
	if d == nil {
		return rebuildVertex
	}
	cols := append([]int(nil), sv.KeyCols...)
	for _, r := range expr.Refs(sv.Where) {
		cols = append(cols, r.Col)
	}
	if !d.writes(cols) {
		return carryVertex
	}
	return patchVertex
}

// edgePlan is the maintenance decision for one edge type.
type edgePlan struct {
	action string
	// deltas holds, per source of the declaration, how that source's
	// instances changed; nil where they did not (patch only).
	deltas []*graph.Delta
	// regather: the edge set stands but the associated table's attribute
	// cells were rewritten (carry only).
	regather bool
}

// planEdge decides how an edge type that reads the written table, or a
// vertex type over it, is maintained. The sources whose instances changed
// in a way the declaration can see — a source it filters or joins on a
// written column, or one that gained or lost instances — each get a
// delta. No such source: the edge set stands and the type is re-anchored.
// Otherwise it is patched, unless the change cannot be attributed: the
// deltas belong to more than one distinct source (a vertex type and its
// own base table, two vertex types over one table), or the declaration
// joins through further tables whose rows the edge instances do not
// record. Those, and a rebuilt endpoint, rebuild the edge type.
func planEdge(s *sema.CreateEdge, newTbl *table.Table, d *tableDelta, touched map[string]*vertexMaint) edgePlan {
	if d == nil {
		return edgePlan{action: rebuildEdge}
	}
	reads := make([][]int, len(s.Sources))
	for i, f := range s.Filters {
		for _, r := range expr.Refs(f) {
			reads[i] = append(reads[i], r.Col)
		}
	}
	for _, j := range s.Joins {
		reads[j.ASource] = append(reads[j.ASource], j.ACol)
		reads[j.BSource] = append(reads[j.BSource], j.BCol)
	}
	p := edgePlan{action: carryEdge, deltas: make([]*graph.Delta, len(s.Sources))}
	var changed []any // the distinct sources with a delta
	for i, src := range s.Sources {
		var sd *graph.Delta
		var id any = src.Tbl
		if src.IsVertex {
			m := touched[strings.ToLower(src.Vtx.Name)]
			switch {
			case m == nil:
				continue
			case m.action == rebuildVertex:
				return edgePlan{action: rebuildEdge}
			case m.action == carryVertex:
				// No vertex moved; the declaration sees the write only
				// through a rewritten attribute of a one-to-one type.
				if !m.old.OneToOne || !d.writes(reads[i]) {
					continue
				}
				if m.delta == nil {
					m.delta = &graph.Delta{}
					for _, r := range d.rows.Changed {
						if v := m.old.VIDForRow(r); v != graph.NoVertex {
							m.delta.Changed = append(m.delta.Changed, v)
						}
					}
				}
			}
			sd, id = m.delta, m
		} else if src.Tbl != newTbl {
			continue
		} else if d.writes(reads[i]) {
			sd = &d.rows
		} else {
			p.regather = p.regather || i == s.AttrSource
			continue
		}
		p.action = patchEdge
		p.deltas[i] = sd
		if !slices.Contains(changed, id) {
			changed = append(changed, id)
		}
	}
	if p.action == patchEdge && (len(changed) > 1 || len(s.Sources) > 3) {
		return edgePlan{action: rebuildEdge}
	}
	return p
}

// --- explain ---------------------------------------------------------------

// maintPlan describes the view maintenance the statement that d stands for
// would trigger on t, without performing it (plain explain): a dry pass of
// maintainViews, so explain and explain analyze decide alike. A table no
// view reads gets no maintain row, and its commit installs no views. Only a flip
// between one-to-one and many-to-one, which depends on the rows written,
// can turn a patch announced here into a rebuild.
func (e *Engine) maintPlan(t *table.Table, d *tableDelta, p *planTable) (Result, error) {
	_, notes, err := e.maintainViews(t, d, true)
	if err != nil {
		return Result{}, err
	}
	for _, n := range notes {
		p.addf("", "maintain", "%s %s", n.action, n.name)
	}
	if e.store != nil {
		detail := "append statement record, fsync per policy"
		if !e.store.Fsync() {
			detail = "append statement record, no fsync"
		}
		p.addf("", "wal", "%s", detail)
	}
	commit := "swap table version, bump epoch"
	if len(notes) > 0 {
		commit = "swap table version, install views, bump epoch"
	}
	p.addf("", "commit", "%s", commit)
	return p.result()
}

func (e *Engine) explainInsert(s *sema.Insert) (Result, error) {
	p := newPlanTable(false, false)
	p.addf("", "insert", "%d tuple(s) into table %s", len(s.Rows), s.Table.Name)
	return e.maintPlan(s.Table, &tableDelta{}, p)
}

func (e *Engine) explainUpdate(s *sema.Update) (Result, error) {
	p := newPlanTable(false, false)
	p.addf("", "update", "table %s (%d set clause(s))", s.Table.Name, len(s.Sets))
	explainWhere(s.Where, p)
	d := &tableDelta{written: make([]bool, len(s.Table.Schema()))}
	for _, sc := range s.Sets {
		d.written[sc.Col] = true
	}
	return e.maintPlan(s.Table, d, p)
}

func (e *Engine) explainDelete(s *sema.Delete) (Result, error) {
	p := newPlanTable(false, false)
	p.addf("", "delete", "from table %s", s.Table.Name)
	explainWhere(s.Where, p)
	return e.maintPlan(s.Table, &tableDelta{}, p)
}

func explainWhere(where expr.Expr, p *planTable) {
	if where != nil {
		p.addf("", "filter", "where %s", where)
	} else {
		p.addf("", "filter", "no where clause: every row matches")
	}
}

// dmlAnalyzeResult renders the spans of an executed (and committed) write,
// each with rows and time, then a total row. The verb's span opens first
// and covers the build, views included; the maintained views' spans follow
// it, then wal and commit. So the total adds the verb, wal and commit, and
// its detail sums the views as index maintenance.
func dmlAnalyzeResult(spans []*obs.Span) (Result, error) {
	p := newPlanTable(false, true)
	p.addSpans(spans, "")
	var maintUs int64
	totalUs := spans[0].Duration().Microseconds()
	for _, sp := range spans[1:] {
		switch us := sp.Duration().Microseconds(); sp.Action {
		case "wal", "commit":
			totalUs += us
		default:
			maintUs += us
		}
	}
	p.add("total", fmt.Sprintf("index maintenance %dus", maintUs), "", spans[0].Rows(), totalUs)
	return p.result()
}
