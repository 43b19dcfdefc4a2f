package sema

import (
	"errors"
	"fmt"
	"strings"

	"graql/internal/ast"
	"graql/internal/catalog"
	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/table"
	"graql/internal/value"
)

// Stmt is an analysed, resolved statement ready for execution.
type Stmt interface{ semaStmt() }

// CreateTable is an analysed create-table statement.
type CreateTable struct {
	Name   string
	Schema table.Schema
}

func (*CreateTable) semaStmt() {}

// CreateVertex is an analysed create-vertex statement: the base table, the
// resolved key columns and the resolved row filter (references use source
// 0 = base table).
type CreateVertex struct {
	Decl    *ast.CreateVertex
	Base    *table.Table
	KeyCols []int
	Where   expr.Expr
}

func (*CreateVertex) semaStmt() {}

// EdgeSource is one relation participating in an edge declaration's join
// pipeline: the source vertex view, the target vertex view, or an
// associated table.
type EdgeSource struct {
	Name     string // alias (or type/table name) used in the where clause
	IsVertex bool
	Vtx      *graph.VertexType
	Tbl      *table.Table
}

// AttrIndex resolves a name visible on the source: an attribute of the
// vertex type, a column of the table.
func (s *EdgeSource) AttrIndex(name string) (int, bool) {
	if s.IsVertex {
		return s.Vtx.AttrIndex(name)
	}
	i := s.Tbl.Schema().Index(name)
	return i, i >= 0
}

// AttrType returns the type of a column AttrIndex resolved.
func (s *EdgeSource) AttrType(col int) value.Type {
	if s.IsVertex {
		return s.Vtx.AttrType(col)
	}
	return s.Tbl.Schema()[col].Type
}

// EdgeJoin is one cross-source equality predicate of an edge declaration.
type EdgeJoin struct {
	ASource, ACol int
	BSource, BCol int
}

// CreateEdge is an analysed create-edge statement: the participating
// sources (source 0 is always the source vertex type, source 1 the target
// vertex type, 2+ the associated tables, explicit then implicit), the
// per-source filters, and the cross-source equality joins.
type CreateEdge struct {
	Decl    *ast.CreateEdge
	Sources []*EdgeSource
	// Filters[i] is the conjunction of single-source conditions on
	// source i (refs use Source=i), or nil.
	Filters []expr.Expr
	Joins   []EdgeJoin
	// AttrSource indexes the source whose rows become the edge attribute
	// table (the single associated table), or -1 for none.
	AttrSource int
}

func (*CreateEdge) semaStmt() {}

// Ingest is an analysed ingest statement.
type Ingest struct {
	Table *table.Table
	File  string
}

func (*Ingest) semaStmt() {}

// Output is an analysed output statement (write a table to a CSV file).
type Output struct {
	Table *table.Table
	File  string
}

func (*Output) semaStmt() {}

// Analyzer performs static analysis against a catalog snapshot. The caller
// must hold the catalog lock across Analyze + execute.
//
// Analysis is error-recovering: within one statement every independent
// problem is diagnosed (paper §III-A's "all checks", not just the first),
// and the full set is available through Vet. Analyze keeps the
// error-returning contract the engine uses.
type Analyzer struct {
	Cat *catalog.Catalog
	// NoFold disables constant folding of resolved predicates (used by
	// tests to compare folded against unfolded execution).
	NoFold bool
	// Locals, when non-nil, resolves the results that earlier statements
	// of the analysed statement's script produced. A select's source table,
	// a seeded step's subgraph and an output's table are looked up there
	// before the catalog; so is the table a write maintains views over.
	Locals Locals

	diags    diag.List
	stmtSpan diag.Span
}

// Locals holds a script's own results: what its statements produced
// into a table or a subgraph, which shadow the catalog's objects of the
// same name for the statements after them (DESIGN.md §10).
type Locals interface {
	Table(name string) *table.Table
	Subgraph(name string) *graph.Subgraph
}

// table resolves a table a statement reads: the script's own result of
// that name, else the catalog's table.
func (a *Analyzer) table(name string) *table.Table {
	if a.Locals != nil {
		if t := a.Locals.Table(name); t != nil {
			return t
		}
	}
	return a.Cat.Table(name)
}

// ResolveSubgraph resolves a seeded step's subgraph for analysis and for
// the matcher: the script's own result of that name, else the catalog's,
// while it is valid in the catalog's graph (graph.Graph.Valid).
func ResolveSubgraph(cat *catalog.Catalog, locals Locals, name string) *graph.Subgraph {
	var sg *graph.Subgraph
	if locals != nil {
		sg = locals.Subgraph(name)
	}
	if sg == nil {
		sg = cat.Subgraph(name)
	}
	if sg == nil || !cat.Graph().Valid(sg) {
		return nil
	}
	return sg
}

// Analyze statically checks one statement and returns its resolved form.
// The error is nil when the statement has no error-severity diagnostics
// (lint warnings do not block execution); otherwise it is the first
// diagnostic (with a count of the rest) and wraps diag.ErrStaticAnalysis.
func (a *Analyzer) Analyze(st ast.Stmt) (Stmt, error) {
	out, diags := a.Vet(st)
	if err := diags.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Vet statically checks one statement and returns every diagnostic found,
// errors and lint warnings alike, sorted by source position. The resolved
// statement is nil when there are error-severity diagnostics.
func (a *Analyzer) Vet(st ast.Stmt) (Stmt, diag.List) {
	a.diags = nil
	a.stmtSpan = st.Span()
	var out Stmt
	switch s := st.(type) {
	case *ast.CreateTable:
		a.checkNewName("table", s.Name, s.NamePos, a.Cat.Table(s.Name) != nil)
		out = a.analyzeCreateTable(s)
	case *ast.CreateVertex:
		a.checkNewName("vertex type", s.Name, s.NamePos, a.Cat.Graph().VertexType(s.Name) != nil)
		out = a.analyzeCreateVertex(s)
	case *ast.CreateEdge:
		a.checkNewName("edge type", s.Name, s.NamePos, a.Cat.Graph().EdgeType(s.Name) != nil)
		out = a.analyzeCreateEdge(s, a.Cat.Graph())
	case *ast.Ingest:
		out = a.analyzeIngest(s)
	case *ast.Output:
		out = a.analyzeOutput(s)
	case *ast.Select:
		out = a.analyzeSelect(s)
	case *ast.Insert:
		out = a.analyzeInsert(s)
	case *ast.Update:
		out = a.analyzeUpdate(s)
	case *ast.Delete:
		out = a.analyzeDelete(s)
	default:
		a.errorf(diag.Span{}, diag.UnknownStmt, "unsupported statement %T", st)
	}
	diags := a.diags
	a.diags = nil
	diags.Sort()
	if diags.HasErrors() {
		return nil, diags
	}
	return out, diags
}

// spanOr substitutes the statement span for an unknown span, so every
// diagnostic points somewhere useful even for hand-built ASTs.
func (a *Analyzer) spanOr(s diag.Span) diag.Span {
	if s.Known() {
		return s
	}
	return a.stmtSpan
}

// errorf records an error diagnostic.
func (a *Analyzer) errorf(span diag.Span, code diag.Code, format string, args ...any) {
	a.diags.Add(diag.Diagnostic{
		Severity: diag.SevError,
		Code:     code,
		Span:     a.spanOr(span),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// warnf records a lint warning.
func (a *Analyzer) warnf(span diag.Span, code diag.Code, format string, args ...any) {
	a.diags.Add(diag.Diagnostic{
		Severity: diag.SevWarning,
		Code:     code,
		Span:     a.spanOr(span),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// addErr records an error produced by a subsystem: positioned diagnostics
// (e.g. expression type errors) pass through; plain errors are wrapped
// under the fallback code at the statement span.
func (a *Analyzer) addErr(err error, fallback diag.Code) {
	var d *diag.Diagnostic
	if errors.As(err, &d) {
		dd := *d
		dd.Span = a.spanOr(dd.Span)
		a.diags.Add(dd)
		return
	}
	a.errorf(diag.Span{}, fallback, "%s", strings.TrimPrefix(err.Error(), "graql: "))
}

// hasErrors reports whether any error diagnostic has been recorded for the
// current statement.
func (a *Analyzer) hasErrors() bool { return a.diags.HasErrors() }

// checkNewName diagnoses a create whose name is taken: by an object of its
// own kind (exists), else by any other.
func (a *Analyzer) checkNewName(kind, name string, pos diag.Span, exists bool) {
	if exists {
		a.errorf(pos, diag.DuplicateName, "%s %s already exists", kind, name)
	} else if a.Cat.Table(name) != nil || a.Cat.Graph().VertexType(name) != nil || a.Cat.Graph().EdgeType(name) != nil {
		a.errorf(pos, diag.DuplicateName, "name %s already in use", name)
	}
}

// Resolve re-resolves a vertex or edge declaration the catalog holds, for
// view maintenance: the analysis of the create without checkNewName, its
// tables looked up through Locals first and an edge's endpoints in g.
func (a *Analyzer) Resolve(decl ast.Stmt, g *graph.Graph) (Stmt, error) {
	a.diags, a.stmtSpan = nil, decl.Span()
	var out Stmt
	if s, ok := decl.(*ast.CreateVertex); ok {
		out = a.analyzeCreateVertex(s)
	} else {
		out = a.analyzeCreateEdge(decl.(*ast.CreateEdge), g)
	}
	return out, a.diags.Err()
}

func (a *Analyzer) analyzeCreateTable(s *ast.CreateTable) Stmt {
	var schema table.Schema
	for _, c := range s.Cols {
		schema = append(schema, table.ColumnDef{Name: c.Name, Type: c.Type})
	}
	if err := schema.Validate(); err != nil {
		a.addErr(err, diag.DuplicateName)
	}
	return &CreateTable{Name: s.Name, Schema: schema}
}

// keySpan returns the source span of key column i (hand-built ASTs carry
// no key positions).
func keySpan(s *ast.CreateVertex, i int) diag.Span {
	if i < len(s.KeyPos) {
		return s.KeyPos[i]
	}
	return diag.Span{}
}

func (a *Analyzer) analyzeCreateVertex(s *ast.CreateVertex) Stmt {
	base := a.table(s.From)
	if base == nil {
		// The paper's example error class: using an entity of the wrong
		// kind where a table is required.
		if a.Cat.Graph().VertexType(s.From) != nil {
			a.errorf(s.FromPos, diag.WrongEntityKind, "%s is a vertex type; create vertex requires a table", s.From)
		} else {
			a.errorf(s.FromPos, diag.UnknownTable, "unknown table %s", s.From)
		}
		return nil
	}
	out := &CreateVertex{Decl: s, Base: base}
	for i, k := range s.KeyCols {
		idx := base.Schema().Index(k)
		if idx < 0 {
			a.errorf(keySpan(s, i), diag.UnknownColumn, "table %s has no column %s", base.Name, k)
			continue
		}
		out.KeyCols = append(out.KeyCols, idx)
	}
	if s.Where != nil {
		src := []*EdgeSource{{Name: base.Name, Tbl: base}}
		env := edgeSourceTypeEnv{sources: src}
		if w, ok := a.resolveTableExpr(s.Where, src); ok {
			w = a.coerceDates(w, env)
			if a.checkBool(w, env) {
				out.Where = dropAlwaysTrue(a.lintCond(w))
			}
		}
	}
	if a.hasErrors() {
		return nil
	}
	return out
}

func (a *Analyzer) analyzeIngest(s *ast.Ingest) Stmt {
	t := a.Cat.Table(s.Table)
	if t == nil {
		a.errorf(s.TablePos, diag.UnknownTable, "unknown table %s", s.Table)
		return nil
	}
	return &Ingest{Table: t, File: s.File}
}

func (a *Analyzer) analyzeOutput(s *ast.Output) Stmt {
	t := a.table(s.Table)
	if t == nil {
		if a.Cat.Graph().VertexType(s.Table) != nil {
			a.errorf(s.TablePos, diag.WrongEntityKind, "%s is a vertex type; output requires a table", s.Table)
		} else {
			a.errorf(s.TablePos, diag.UnknownTable, "unknown table %s", s.Table)
		}
		return nil
	}
	return &Output{Table: t, File: s.File}
}

// edgeFromSpan returns the source span of from-table i.
func edgeFromSpan(s *ast.CreateEdge, i int) diag.Span {
	if i < len(s.FromPos) {
		return s.FromPos[i]
	}
	return diag.Span{}
}

// analyzeCreateEdge resolves an edge declaration into its join pipeline.
// Source 0 is the source vertex view, source 1 the target vertex view,
// then the explicit "from table" tables, then any tables referenced only
// in the where clause (the paper's Fig. 3 "feature" edge references
// ProductFeatures without a from clause). Endpoint, table and where-clause
// problems are all diagnosed in one pass; conjunct classification runs
// only once the source list resolved cleanly. Endpoints resolve in g.
func (a *Analyzer) analyzeCreateEdge(s *ast.CreateEdge, g *graph.Graph) Stmt {
	srcV := g.VertexType(s.SrcType)
	if srcV == nil {
		a.errorf(s.SrcPos, diag.UnknownVertex, "unknown vertex type %s in edge %s", s.SrcType, s.Name)
	}
	dstV := g.VertexType(s.DstType)
	if dstV == nil {
		a.errorf(s.DstPos, diag.UnknownVertex, "unknown vertex type %s in edge %s", s.DstType, s.Name)
	}
	srcName, dstName := endpointNames(s)
	out := &CreateEdge{
		Decl: s,
		Sources: []*EdgeSource{
			{Name: srcName, IsVertex: true, Vtx: srcV},
			{Name: dstName, IsVertex: true, Vtx: dstV},
		},
		AttrSource: -1,
	}
	if strings.EqualFold(srcName, dstName) {
		a.errorf(s.NamePos, diag.EdgeDeclRule, "edge %s: source and target need distinct aliases (use 'as')", s.Name)
	}
	for i, tn := range s.FromTables {
		t := a.table(tn)
		if t == nil {
			a.errorf(edgeFromSpan(s, i), diag.UnknownTable, "unknown table %s in edge %s", tn, s.Name)
			continue
		}
		out.Sources = append(out.Sources, &EdgeSource{Name: tn, Tbl: t})
	}

	findSource := func(name string) int {
		for i, src := range out.Sources {
			if strings.EqualFold(src.Name, name) {
				return i
			}
		}
		return -1
	}

	// Implicitly add tables referenced only in the where clause.
	for _, r := range expr.Refs(s.Where) {
		if r.Qualifier == "" {
			a.errorf(r.Loc, diag.UnqualifiedRef, "edge %s: unqualified column %s in where clause", s.Name, r.Name)
			continue
		}
		if findSource(r.Qualifier) >= 0 {
			continue
		}
		t := a.table(r.Qualifier)
		if t == nil {
			a.errorf(r.Loc, diag.UnknownSource, "edge %s: unknown source %s in where clause", s.Name, r.Qualifier)
			continue
		}
		out.Sources = append(out.Sources, &EdgeSource{Name: t.Name, Tbl: t})
	}
	if n := len(out.Sources); n == 3 {
		out.AttrSource = 2
	}

	if s.Where == nil {
		a.errorf(s.NamePos, diag.EdgeDeclRule, "edge %s: missing where clause", s.Name)
	}
	if a.hasErrors() {
		// The source list (or the declaration itself) is broken; the
		// conjunct classification below would only cascade.
		return nil
	}

	// Resolve references and classify conjuncts into per-source filters
	// and cross-source equality joins.
	resolved, ok := a.resolveTableExpr(s.Where, out.Sources)
	if !ok {
		return nil
	}
	env := edgeSourceTypeEnv{sources: out.Sources}
	resolved = a.coerceDates(resolved, env)
	if !a.checkBool(resolved, env) {
		return nil
	}
	a.lintNullCompare(resolved)
	out.Filters = make([]expr.Expr, len(out.Sources))
	for _, conj := range expr.Conjuncts(resolved) {
		srcs := refSources(conj)
		switch len(srcs) {
		case 0:
			a.errorf(expr.SpanOf(conj), diag.EdgeDeclRule, "edge %s: constant condition %s", s.Name, conj)
		case 1:
			i := srcs[0]
			out.Filters[i] = expr.AndAll([]expr.Expr{out.Filters[i], conj})
		case 2:
			l, r, ok := expr.EqualityPair(conj)
			if !ok {
				a.errorf(expr.SpanOf(conj), diag.EdgeDeclRule, "edge %s: cross-source condition %s must be an equality between columns", s.Name, conj)
				continue
			}
			out.Joins = append(out.Joins, EdgeJoin{
				ASource: l.Source, ACol: l.Col,
				BSource: r.Source, BCol: r.Col,
			})
		default:
			a.errorf(expr.SpanOf(conj), diag.EdgeDeclRule, "edge %s: condition %s references more than two sources", s.Name, conj)
		}
	}
	if a.hasErrors() {
		return nil
	}
	if len(out.Joins) == 0 {
		a.errorf(expr.SpanOf(s.Where), diag.EdgeDeclRule, "edge %s: where clause must join the source and target vertex types", s.Name)
		return nil
	}
	// The join graph must connect source 0 (source vertex) with source 1
	// (target vertex) so every edge has well-defined endpoints.
	if !joinConnected(len(out.Sources), out.Joins) {
		a.errorf(expr.SpanOf(s.Where), diag.Disconnected, "edge %s: join conditions do not connect all sources", s.Name)
		return nil
	}
	return out
}

// refSources returns the distinct source ids referenced by e, ascending.
func refSources(e expr.Expr) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range expr.Refs(e) {
		if !seen[r.Source] {
			seen[r.Source] = true
			out = append(out, r.Source)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// joinConnected reports whether the join equalities connect every source
// into a single component.
func joinConnected(n int, joins []EdgeJoin) bool {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range joins {
		parent[find(j.ASource)] = find(j.BSource)
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}

// resolveTableExpr resolves references against a list of named sources.
// Unqualified names resolve only when exactly one source defines them.
// Every unresolvable reference is diagnosed (not just the first); ok
// reports whether the whole expression resolved.
func (a *Analyzer) resolveTableExpr(e expr.Expr, sources []*EdgeSource) (expr.Expr, bool) {
	ok := true
	out := expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		r, isRef := n.(*Ref)
		if !isRef {
			return nil
		}
		if r.Qualifier == "" {
			found, col := -1, -1
			ambiguous := false
			for i, src := range sources {
				if c, has := src.AttrIndex(r.Name); has {
					if found >= 0 {
						ambiguous = true
						break
					}
					found, col = i, c
				}
			}
			switch {
			case ambiguous:
				a.errorf(r.Loc, diag.AmbiguousName, "ambiguous column %s", r.Name)
				ok = false
			case found < 0:
				a.errorf(r.Loc, diag.UnknownColumn, "unknown column %s", r.Name)
				ok = false
			default:
				r.Source, r.Col = found, col
			}
			return r
		}
		for i, src := range sources {
			if strings.EqualFold(src.Name, r.Qualifier) {
				c, has := src.AttrIndex(r.Name)
				if !has {
					a.errorf(r.Loc, diag.UnknownColumn, "%s has no column %s", src.Name, r.Name)
					ok = false
					return r
				}
				r.Source, r.Col = i, c
				return r
			}
		}
		a.errorf(r.Loc, diag.UnknownSource, "unknown source %s", r.Qualifier)
		ok = false
		return r
	})
	return out, ok
}

// Ref aliases expr.Ref for resolution rewrites.
type Ref = expr.Ref

type edgeSourceTypeEnv struct{ sources []*EdgeSource }

func (e edgeSourceTypeEnv) TypeOf(source, col int) value.Type {
	return e.sources[source].AttrType(col)
}

// checkBool type-checks e, requires a boolean result, and records any
// failure as a diagnostic.
func (a *Analyzer) checkBool(e expr.Expr, env expr.TypeEnv) bool {
	t, err := e.Check(env)
	if err != nil {
		a.addErr(err, diag.TypeMismatch)
		return false
	}
	if t.Kind != value.KindBool && t.Kind != value.KindInvalid {
		a.errorf(expr.SpanOf(e), diag.BoolRequired, "condition must be boolean, got %s", t)
		return false
	}
	return a.checkConstEval(e)
}

// checkConstEval diagnoses constant subexpressions that are guaranteed to
// fail at runtime, such as division or modulo by a constant zero
// (GQL0402). Fold deliberately leaves such nodes in place so the runtime
// error is preserved; this check runs only on well-typed expressions, so
// any evaluation failure over constant operands is an unconditional one.
func (a *Analyzer) checkConstEval(e expr.Expr) bool {
	ok := true
	expr.Walk(e, func(x expr.Expr) {
		b, isBin := x.(*expr.Binary)
		if !isBin || !b.Op.Arith() {
			return
		}
		if _, lc := b.L.(*expr.Const); !lc {
			return
		}
		if _, rc := b.R.(*expr.Const); !rc {
			return
		}
		if _, err := b.Eval(nil); err != nil {
			a.errorf(expr.SpanOf(b), diag.ConstEval, "constant expression %s always fails: %s",
				b, strings.TrimPrefix(err.Error(), "graql: "))
			ok = false
		}
	})
	return ok
}

// coerceDates rewrites string literals compared against date columns into
// date literals, so that the legacy spelling validFrom >= '2008-01-01'
// still type-checks under strong typing. Each rewrite is reported as an
// implicit-coercion lint (GQL1007): the typed spelling is the explicit
// date '...' literal, which skips this path entirely.
func (a *Analyzer) coerceDates(e expr.Expr, env expr.TypeEnv) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		b, ok := n.(*expr.Binary)
		if !ok || !b.Op.Comparison() {
			return nil
		}
		b.L = a.coerceDateSide(b.L, b.R, env)
		b.R = a.coerceDateSide(b.R, b.L, env)
		return b
	})
}

func (a *Analyzer) coerceDateSide(lit, other expr.Expr, env expr.TypeEnv) expr.Expr {
	c, ok := lit.(*expr.Const)
	if !ok || c.V.Kind() != value.KindString {
		return lit
	}
	ot, err := other.Check(env)
	if err != nil || ot.Kind != value.KindDate {
		return lit
	}
	if d, err := value.Parse(c.V.Str(), value.Date); err == nil {
		a.warnf(c.Loc, diag.ImplicitCoercion,
			"string literal '%s' implicitly coerced to date; write date '%s'", c.V.Str(), c.V.Str())
		return &expr.Const{V: d, Loc: c.Loc}
	}
	return lit
}
