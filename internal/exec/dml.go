package exec

import (
	"fmt"
	"strings"
	"time"

	"graql/internal/ast"
	"graql/internal/catalog"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// The DML operators (insert, update, delete) follow a copy-on-write
// protocol so morsel-parallel readers never observe a half-applied write:
//
//  1. BeginWrite serialises this statement against other writers.
//  2. Under the read lock, the statement is analysed and a complete new
//     version of the target table plus a new view graph are built aside.
//     Published tables and views are immutable, so concurrent readers
//     keep using the current versions undisturbed.
//  3. The statement is appended to the WAL and fsynced (when a store is
//     attached) — before commit, so an acknowledged write is durable.
//  4. Under a brief write lock, the new table and graph are swapped in
//     and the catalog epoch bumps. Readers that started before the swap
//     finish on the old snapshot; readers that start after see the new
//     one; nobody sees a mix.
//
// View maintenance is incremental where it is provably equivalent to a
// rebuild: inserts extend vertex types in place of rebuilding them
// (append-only key dedup) and join only the delta rows of the one changed
// edge source against the other sources, seeding the dedup set with the
// existing edges. Updates and deletes rebuild only the affected views.

// dmlBuild is the outcome of the build-aside phase of one DML statement.
type dmlBuild struct {
	verb     string // "insert", "update" or "delete"
	table    *table.Table
	graph    *graph.Graph
	affected int
	notes    []maintNote
	buildDur time.Duration
	analyze  bool
}

// maintNote records one view-maintenance action for explain analyze.
type maintNote struct {
	action string // "extend-vertex", "rebuild-vertex", "extend-edge", "rebuild-edge"
	name   string
	rows   int64
	dur    time.Duration
}

// execDML runs one mutating statement through the copy-on-write write
// path described above.
func (e *Engine) execDML(st ast.Stmt, params map[string]value.Value) (Result, error) {
	e.Cat.BeginWrite()
	defer e.Cat.EndWrite()

	e.Cat.RLock()
	an := &sema.Analyzer{Cat: e.Cat, NoFold: e.Opts.NoFold}
	analyzed, err := an.Analyze(st)
	if err != nil {
		e.Cat.RUnlock()
		return Result{}, err
	}

	var b *dmlBuild
	switch s := analyzed.(type) {
	case *sema.Insert:
		if s.Explain && !s.Analyze {
			res, err := e.explainInsert(s)
			e.Cat.RUnlock()
			return res, err
		}
		b, err = e.buildInsert(s, params)
	case *sema.Update:
		if s.Explain && !s.Analyze {
			res, err := e.explainUpdate(s)
			e.Cat.RUnlock()
			return res, err
		}
		b, err = e.buildUpdate(s, params)
	case *sema.Delete:
		if s.Explain && !s.Analyze {
			res, err := e.explainDelete(s)
			e.Cat.RUnlock()
			return res, err
		}
		b, err = e.buildDelete(s, params)
	default:
		e.Cat.RUnlock()
		return Result{}, fmt.Errorf("graql: unsupported statement %T", analyzed)
	}
	e.Cat.RUnlock()
	if err != nil {
		return Result{}, err
	}

	// Durability before visibility: the record is on stable storage before
	// any reader can observe the new version.
	walStart := time.Now()
	if err := e.logStmt(st, params); err != nil {
		return Result{}, err
	}
	walDur := time.Since(walStart)

	commitStart := time.Now()
	e.Cat.Lock()
	if err := e.Cat.SwapTable(b.table); err != nil {
		e.Cat.Unlock()
		return Result{}, err
	}
	e.Cat.SetGraph(b.graph)
	e.Cat.ClearSubgraphs()
	e.Cat.BumpEpoch()
	e.Cat.Unlock()
	commitDur := time.Since(commitStart)

	if sp := e.opSpan(b.verb, fmt.Sprintf("table %s", b.table.Name)); sp != nil {
		sp.AddRows(int64(b.affected))
		sp.End()
	}
	e.met.noteMutation(b.verb, b.affected)
	e.maybeCheckpoint()

	if b.analyze {
		return e.dmlAnalyzeResult(b, walDur, commitDur)
	}
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
	start := time.Now()
	schema := s.Table.Schema()
	nt := s.Table.Clone()
	vals := make([]value.Value, len(schema))
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
		if err := nt.AppendRow(vals); err != nil {
			return nil, err
		}
	}
	g, notes, err := e.buildViewsAside(nt, s.Table.NumRows())
	if err != nil {
		return nil, err
	}
	return &dmlBuild{
		verb: "insert", table: nt, graph: g, affected: len(s.Rows),
		notes: notes, buildDur: time.Since(start), analyze: s.Explain && s.Analyze,
	}, nil
}

func (e *Engine) buildUpdate(s *sema.Update, params map[string]value.Value) (*dmlBuild, error) {
	start := time.Now()
	schema := s.Table.Schema()
	where, err := expr.BindParams(s.Where, params)
	if err != nil {
		return nil, err
	}
	sets := make([]sema.SetCol, len(s.Sets))
	for i, sc := range s.Sets {
		ex, err := expr.BindParams(sc.E, params)
		if err != nil {
			return nil, err
		}
		sets[i] = sema.SetCol{Col: sc.Col, E: ex}
	}
	nt, err := table.New(s.Table.Name, schema)
	if err != nil {
		return nil, err
	}
	hit, affected, err := matchingRows(s.Table, where)
	if err != nil {
		return nil, fmt.Errorf("graql: update %s: %w", s.Table.Name, err)
	}
	for r := uint32(0); r < uint32(s.Table.NumRows()); r++ {
		env := singleTableEnv{t: s.Table, row: r}
		vals := s.Table.Row(r)
		if hit[r] {
			// Set expressions read the row's pre-update values (standard
			// SQL semantics: "set a = b, b = a" swaps).
			for _, sc := range sets {
				v, err := sc.E.Eval(env)
				if err != nil {
					return nil, fmt.Errorf("graql: update %s: %w", s.Table.Name, err)
				}
				cv, err := convertStore(schema[sc.Col].Type, v)
				if err != nil {
					return nil, fmt.Errorf("graql: update %s column %s: %w", s.Table.Name, schema[sc.Col].Name, err)
				}
				vals[sc.Col] = cv
			}
		}
		if err := nt.AppendRow(vals); err != nil {
			return nil, err
		}
	}
	g, notes, err := e.buildViewsAside(nt, -1)
	if err != nil {
		return nil, err
	}
	return &dmlBuild{
		verb: "update", table: nt, graph: g, affected: affected,
		notes: notes, buildDur: time.Since(start), analyze: s.Explain && s.Analyze,
	}, nil
}

func (e *Engine) buildDelete(s *sema.Delete, params map[string]value.Value) (*dmlBuild, error) {
	start := time.Now()
	where, err := expr.BindParams(s.Where, params)
	if err != nil {
		return nil, err
	}
	hit, affected, err := matchingRows(s.Table, where)
	if err != nil {
		return nil, fmt.Errorf("graql: delete from %s: %w", s.Table.Name, err)
	}
	keep := make([]uint32, 0, s.Table.NumRows()-affected)
	for r, gone := range hit {
		if !gone {
			keep = append(keep, uint32(r))
		}
	}
	nt := s.Table.Gather(s.Table.Name, keep)
	g, notes, err := e.buildViewsAside(nt, -1)
	if err != nil {
		return nil, err
	}
	return &dmlBuild{
		verb: "delete", table: nt, graph: g, affected: affected,
		notes: notes, buildDur: time.Since(start), analyze: s.Explain && s.Analyze,
	}, nil
}

// matchingRows is the where scan of update and delete: it marks the rows of
// t on which the bound condition is TRUE, found through the same compiled
// filter a select uses, and counts them. A nil condition matches every row.
func matchingRows(t *table.Table, where expr.Expr) (hit []bool, n int, err error) {
	rows := table.AllRows(t)
	if where != nil {
		if rows, err = table.CompileFilter(t, where).Select(table.Par{}); err != nil {
			return nil, 0, err
		}
	}
	hit = make([]bool, t.NumRows())
	for i := 0; i < rows.Len(); i++ {
		hit[rows.At(i)] = true
	}
	return hit, rows.Len(), nil
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

// --- build-aside: incremental view maintenance -----------------------------

// buildViewsAside derives the view graph that corresponds to replacing
// the catalog's current version of newTbl.Name with newTbl, without
// touching the live catalog (the caller holds only the read lock). Views
// not reachable from the table are carried over by reference; affected
// views are extended incrementally when deltaFrom >= 0 (an insert: rows
// [deltaFrom, n) are new, earlier rows are untouched) and rebuilt from
// scratch otherwise.
//
// Declarations are re-analysed against a shadow catalog holding the new
// table version and the new graph, mirroring rebuildViews: vertex types
// land in the shadow graph before edge analysis so endpoint resolution
// sees them.
func (e *Engine) buildViewsAside(newTbl *table.Table, deltaFrom int) (*graph.Graph, []maintNote, error) {
	old := e.Cat.Graph()
	shadow := catalog.New()
	for _, t := range e.Cat.Tables() {
		if equalFold(t.Name, newTbl.Name) {
			t = newTbl
		}
		if err := shadow.RegisterTable(t, true); err != nil {
			return nil, nil, err
		}
	}
	g := shadow.Graph()
	an := &sema.Analyzer{Cat: shadow, NoFold: e.Opts.NoFold}
	swapped := newTbl.Name

	var notes []maintNote
	dirtyVtx := map[string]bool{}
	rebuiltVtx := map[string]bool{}
	for _, d := range e.Cat.VertexDecls() {
		oldVt := old.VertexType(d.Name)
		if oldVt != nil && !equalFold(d.From, swapped) {
			if err := g.AddVertexType(oldVt); err != nil {
				return nil, nil, err
			}
			continue
		}
		start := time.Now()
		s, err := an.Analyze(d)
		if err != nil {
			return nil, nil, fmt.Errorf("graql: maintaining vertex %s: %w", d.Name, err)
		}
		sv := s.(*sema.CreateVertex)
		var vt *graph.VertexType
		action := "rebuild-vertex"
		if deltaFrom >= 0 && oldVt != nil {
			nvt, ok, err := graph.ExtendVertexType(oldVt, sv.Base, vertexPred(sv))
			if err != nil {
				return nil, nil, err
			}
			if ok {
				vt = nvt
				action = "extend-vertex"
			}
		}
		if vt == nil {
			vt, err = e.buildVertexType(sv)
			if err != nil {
				return nil, nil, err
			}
			rebuiltVtx[strings.ToLower(d.Name)] = true
		}
		if err := g.AddVertexType(vt); err != nil {
			return nil, nil, err
		}
		dirtyVtx[strings.ToLower(d.Name)] = true
		notes = append(notes, maintNote{action, d.Name, int64(vt.Count()), time.Since(start)})
	}

	for _, d := range e.Cat.EdgeDecls() {
		oldEt := old.EdgeType(d.Name)
		if oldEt != nil && !edgeDependsOn(d, dirtyVtx, swapped) {
			if err := g.AddEdgeType(oldEt); err != nil {
				return nil, nil, err
			}
			continue
		}
		start := time.Now()
		s, err := an.Analyze(d)
		if err != nil {
			return nil, nil, fmt.Errorf("graql: maintaining edge %s: %w", d.Name, err)
		}
		se := s.(*sema.CreateEdge)
		var et *graph.EdgeType
		action := "rebuild-edge"
		if deltaFrom >= 0 && oldEt != nil &&
			!rebuiltVtx[strings.ToLower(d.SrcType)] && !rebuiltVtx[strings.ToLower(d.DstType)] {
			et, err = extendEdgeAside(se, oldEt, old, deltaFrom, swapped)
			if err != nil {
				return nil, nil, err
			}
			if et != nil {
				action = "extend-edge"
			}
		}
		if et == nil {
			et, err = e.buildEdgeType(se)
			if err != nil {
				return nil, nil, err
			}
		}
		if err := g.AddEdgeType(et); err != nil {
			return nil, nil, err
		}
		notes = append(notes, maintNote{action, d.Name, int64(et.Count()), time.Since(start)})
	}
	return g, notes, nil
}

// extendEdgeAside incrementally extends an edge type for an insert: when
// exactly one of its sources gained rows (the changed vertex type, or the
// inserted-into table when it is an associated table), only the delta
// rows of that source are joined against the full candidate sets of the
// others — every new result tuple must include a new row, and new rows
// exist only there. The dedup set is seeded with the existing edges so
// only genuinely new instances extend the type. Returns (nil, nil) when
// the shape is not eligible (several sources changed) and the caller must
// rebuild.
func extendEdgeAside(s *sema.CreateEdge, oldEt *graph.EdgeType, oldG *graph.Graph, deltaFrom int, swapped string) (*graph.EdgeType, error) {
	changed := -1
	var changedFrom uint32
	for i, src := range s.Sources {
		var oldN, newN int
		if src.IsVertex {
			ov := oldG.VertexType(src.Vtx.Name)
			if ov == nil {
				return nil, nil
			}
			oldN, newN = ov.Count(), src.Vtx.Count()
		} else {
			if !equalFold(src.Tbl.Name, swapped) {
				continue
			}
			oldN, newN = deltaFrom, src.Tbl.NumRows()
		}
		if newN == oldN {
			continue
		}
		if newN < oldN || changed >= 0 {
			return nil, nil
		}
		changed = i
		changedFrom = uint32(oldN)
	}

	var delta []graph.Edge
	if changed >= 0 {
		cands := make([][]uint32, len(s.Sources))
		for i := range s.Sources {
			from := uint32(0)
			if i == changed {
				from = changedFrom
			}
			rows, err := edgeCandidates(s, i, from)
			if err != nil {
				return nil, err
			}
			cands[i] = rows
		}
		seen := make(map[[3]uint32]bool, oldEt.Count())
		for ei := uint32(0); ei < uint32(oldEt.Count()); ei++ {
			src, dst := oldEt.EdgeAt(ei)
			var ar uint32
			if oldEt.Attrs != nil {
				ar = oldEt.OrigAttrRow(ei)
			}
			seen[[3]uint32{src, dst, ar}] = true
		}
		var err error
		delta, err = joinEdgeTuples(s, cands, seen)
		if err != nil {
			return nil, err
		}
	}
	var attrs *table.Table
	if s.AttrSource >= 0 {
		attrs = s.Sources[s.AttrSource].Tbl
	}
	return graph.ExtendEdgeType(oldEt, s.Sources[0].Vtx, s.Sources[1].Vtx, delta, attrs)
}

// --- explain ---------------------------------------------------------------

func newDMLPlan(analyze bool) (*table.Table, func(action, format string, args ...any) error) {
	schema := table.Schema{
		{Name: "step", Type: value.Int},
		{Name: "action", Type: value.Varchar(32)},
		{Name: "detail", Type: value.Varchar(255)},
	}
	if analyze {
		schema = append(schema,
			table.ColumnDef{Name: "rows", Type: value.Int},
			table.ColumnDef{Name: "time_us", Type: value.Int})
	}
	out := table.MustNew("plan", schema)
	step := 0
	add := func(action, format string, args ...any) error {
		step++
		return out.AppendRow([]value.Value{
			value.NewInt(int64(step)),
			value.NewString(action),
			value.NewString(fmt.Sprintf(format, args...)),
		})
	}
	return out, add
}

// maintPlan describes the view maintenance a mutation of tname would
// trigger, without performing it (for plain explain).
func (e *Engine) maintPlan(tname string, incremental bool, add func(string, string, ...any) error) error {
	mode := map[bool]string{true: "incremental", false: "rebuild"}[incremental]
	dirtyVtx := map[string]bool{}
	for _, d := range e.Cat.VertexDecls() {
		if e.Cat.Graph().VertexType(d.Name) == nil || equalFold(d.From, tname) {
			dirtyVtx[strings.ToLower(d.Name)] = true
			if err := add("maintain", "vertex %s (%s)", d.Name, mode); err != nil {
				return err
			}
		}
	}
	for _, d := range e.Cat.EdgeDecls() {
		if e.Cat.Graph().EdgeType(d.Name) == nil || edgeDependsOn(d, dirtyVtx, tname) {
			if err := add("maintain", "edge %s (%s)", d.Name, mode); err != nil {
				return err
			}
		}
	}
	return e.explainDurability(add)
}

func (e *Engine) explainDurability(add func(string, string, ...any) error) error {
	if e.store != nil {
		if err := add("wal", "append statement record, fsync per policy"); err != nil {
			return err
		}
	}
	return add("commit", "swap table version, install views, bump epoch")
}

func (e *Engine) explainInsert(s *sema.Insert) (Result, error) {
	out, add := newDMLPlan(false)
	if err := add("insert", "%d tuple(s) into table %s", len(s.Rows), s.Table.Name); err != nil {
		return Result{}, err
	}
	if err := e.maintPlan(s.Table.Name, true, add); err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

func (e *Engine) explainUpdate(s *sema.Update) (Result, error) {
	out, add := newDMLPlan(false)
	if err := add("update", "table %s (%d set clause(s))", s.Table.Name, len(s.Sets)); err != nil {
		return Result{}, err
	}
	if s.Where != nil {
		if err := add("filter", "where %s", s.Where); err != nil {
			return Result{}, err
		}
	} else if err := add("filter", "no where clause: every row matches"); err != nil {
		return Result{}, err
	}
	if err := e.maintPlan(s.Table.Name, false, add); err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

func (e *Engine) explainDelete(s *sema.Delete) (Result, error) {
	out, add := newDMLPlan(false)
	if err := add("delete", "from table %s", s.Table.Name); err != nil {
		return Result{}, err
	}
	if s.Where != nil {
		if err := add("filter", "where %s", s.Where); err != nil {
			return Result{}, err
		}
	} else if err := add("filter", "no where clause: every row matches"); err != nil {
		return Result{}, err
	}
	if err := e.maintPlan(s.Table.Name, false, add); err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}

// dmlAnalyzeResult renders the executed (and committed) mutation as an
// explain-analyze plan table: rows affected plus the time spent in each
// phase, including per-view index maintenance.
func (e *Engine) dmlAnalyzeResult(b *dmlBuild, walDur, commitDur time.Duration) (Result, error) {
	out, _ := newDMLPlan(true)
	step := 0
	add := func(action, detail string, rows, us int64) error {
		step++
		return out.AppendRow([]value.Value{
			value.NewInt(int64(step)),
			value.NewString(action),
			value.NewString(detail),
			value.NewInt(rows),
			value.NewInt(us),
		})
	}
	maintUs := int64(0)
	if err := add(b.verb, fmt.Sprintf("table %s", b.table.Name), int64(b.affected), b.buildDur.Microseconds()); err != nil {
		return Result{}, err
	}
	for _, n := range b.notes {
		maintUs += n.dur.Microseconds()
		if err := add(n.action, n.name, n.rows, n.dur.Microseconds()); err != nil {
			return Result{}, err
		}
	}
	if e.store != nil {
		if err := add("wal", "append + fsync", 1, walDur.Microseconds()); err != nil {
			return Result{}, err
		}
	}
	if err := add("commit", "swap table version, install views", int64(b.affected), commitDur.Microseconds()); err != nil {
		return Result{}, err
	}
	if err := add("total", fmt.Sprintf("index maintenance %dus", maintUs), int64(b.affected),
		(b.buildDur + walDur + commitDur).Microseconds()); err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultTable, Table: out}, nil
}
