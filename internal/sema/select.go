package sema

import (
	"cmp"
	"fmt"
	"strings"

	"graql/internal/ast"
	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/table"
	"graql/internal/value"
)

// Item is one resolved projection item of a table select.
type Item struct {
	Agg     ast.AggFunc
	AggStar bool
	// Col is the input column for a plain reference or aggregate
	// argument; -1 for count(*) or computed expressions.
	Col int
	// Expr is the resolved computed expression for non-aggregate,
	// non-reference items (refs use Source 0 = the table).
	Expr expr.Expr
	Name string
}

// OrderKey is one resolved "order by" key over the output schema.
type OrderKey struct {
	Col  int
	Desc bool
}

// GraphProjItem is one resolved projection item of a graph select: a
// whole step (Col = -1) or a single attribute of a step.
type GraphProjItem struct {
	Source int // pattern source id (node, or len(Nodes)+edge id)
	Col    int // -1 = whole step
	Name   string
}

// GraphAlt is one or-composition alternative of an analysed graph select:
// its pattern plus the projection resolved against that pattern.
type GraphAlt struct {
	Pattern *Pattern
	Proj    []GraphProjItem // nil when the select is "*"
}

// Select is an analysed select statement, in either table mode (Table !=
// nil) or graph mode (GraphAlts != nil).
type Select struct {
	Decl     *ast.Select
	Explain  bool
	Analyze  bool
	Top      int
	Distinct bool
	Star     bool
	Into     ast.Into

	// Table mode.
	Table   *table.Table
	Where   expr.Expr
	Items   []Item
	GroupBy []int
	Grouped bool

	// Graph mode.
	GraphAlts []*GraphAlt

	// OutSchema is the output column schema (table-producing selects).
	OutSchema table.Schema
	OrderBy   []OrderKey
}

func (*Select) semaStmt() {}

func (a *Analyzer) analyzeSelect(s *ast.Select) Stmt {
	if s.Into.Kind == ast.IntoTable {
		if err := a.CheckIntoTable(s.Into); err != nil {
			a.addErr(err, diag.DuplicateName)
		}
	}
	if s.Graph != nil {
		return a.analyzeGraphSelect(s)
	}
	return a.analyzeTableSelect(s)
}

// CheckIntoTable refuses (GQL0108) a result that would replace a table a
// vertex or edge declaration reads: a result table is published as it is,
// without re-deriving the views over the name, which would go stale.
func (a *Analyzer) CheckIntoTable(into ast.Into) error {
	refuse := func(kind, view string) error {
		return &diag.Diagnostic{Severity: diag.SevError, Code: diag.DuplicateName, Span: into.NamePos,
			Msg: fmt.Sprintf("table %s feeds %s %s; a select cannot replace it", into.Name, kind, view)}
	}
	for _, d := range a.Cat.VertexDecls() {
		if strings.EqualFold(d.From, into.Name) {
			return refuse("vertex", d.Name)
		}
	}
	for _, d := range a.Cat.EdgeDecls() {
		if EdgeReadsTable(d, into.Name) {
			return refuse("edge", d.Name)
		}
	}
	return nil
}

// EdgeReadsTable reports whether an edge declaration reads the named
// table: as one of its from-tables or through a where-clause qualifier.
// A qualifier naming an endpoint (endpointNames) reads that vertex view,
// not a table, as analyzeCreateEdge resolves it.
func EdgeReadsTable(d *ast.CreateEdge, tbl string) bool {
	for _, t := range d.FromTables {
		if strings.EqualFold(t, tbl) {
			return true
		}
	}
	if src, dst := endpointNames(d); strings.EqualFold(src, tbl) || strings.EqualFold(dst, tbl) {
		return false
	}
	reads := false
	expr.Walk(d.Where, func(n expr.Expr) {
		if r, ok := n.(*expr.Ref); ok && strings.EqualFold(r.Qualifier, tbl) {
			reads = true
		}
	})
	return reads
}

// endpointNames returns how an edge declaration's where clause names its
// source and target: each one's alias, or its type when it has none.
func endpointNames(d *ast.CreateEdge) (src, dst string) {
	return cmp.Or(d.SrcAlias, d.SrcType), cmp.Or(d.DstAlias, d.DstType)
}

func (a *Analyzer) analyzeTableSelect(s *ast.Select) Stmt {
	t := a.table(s.FromTable)
	if t == nil {
		// The paper's §III-A example: an entity of the wrong kind where
		// a table is required. Nothing else can be checked without the
		// table schema, so this one is fatal.
		if a.Cat.Graph().VertexType(s.FromTable) != nil {
			a.errorf(s.FromTablePos, diag.WrongEntityKind, "%s is a vertex type; from table requires a table", s.FromTable)
		} else if a.Cat.Graph().EdgeType(s.FromTable) != nil {
			a.errorf(s.FromTablePos, diag.WrongEntityKind, "%s is an edge type; from table requires a table", s.FromTable)
		} else {
			a.errorf(s.FromTablePos, diag.UnknownTable, "unknown table %s", s.FromTable)
		}
		return nil
	}
	out := &Select{Decl: s, Explain: s.Explain, Analyze: s.Analyze, Top: s.Top, Distinct: s.Distinct, Star: s.Star, Into: s.Into, Table: t}
	if s.Into.Kind == ast.IntoSubgraph {
		a.errorf(s.Into.NamePos, diag.StatementMisuse, "a table select cannot produce a subgraph")
	}
	src := []*EdgeSource{{Name: t.Name, Tbl: t}}
	env := edgeSourceTypeEnv{sources: src}

	if s.Where != nil {
		if w, ok := a.resolveTableExpr(s.Where, src); ok {
			w = a.coerceDates(w, env)
			if a.checkBool(w, env) {
				out.Where = dropAlwaysTrue(a.lintCond(w))
			}
		}
	}

	// Group-by keys.
	for _, g := range s.GroupBy {
		col, err := resolveTableCol(g, t)
		if err != nil {
			a.addErr(err, diag.UnknownColumn)
			continue
		}
		out.GroupBy = append(out.GroupBy, col)
	}
	anyAgg := false
	for _, it := range s.Items {
		if it.Agg != ast.AggNone {
			anyAgg = true
		}
	}
	out.Grouped = len(out.GroupBy) > 0 || anyAgg

	// Projection items. Each item is checked independently so a select
	// with several bad columns reports all of them in one pass.
	itemsOK := true
	if s.Star {
		if out.Grouped {
			a.errorf(diag.Span{}, diag.GroupingRule, "select * cannot be combined with group by or aggregates")
			itemsOK = false
		} else {
			for i, cd := range t.Schema() {
				out.Items = append(out.Items, Item{Agg: ast.AggNone, Col: i, Name: cd.Name})
				out.OutSchema = append(out.OutSchema, cd)
			}
		}
	} else {
		for _, it := range s.Items {
			item, cd, ok := a.analyzeItem(it, t, out)
			if !ok {
				itemsOK = false
				continue
			}
			out.Items = append(out.Items, item)
			out.OutSchema = append(out.OutSchema, cd)
		}
	}
	// The derived output schema only makes sense when every item
	// resolved; skip the dependent checks otherwise to avoid cascades.
	if itemsOK {
		if err := out.OutSchema.Validate(); err != nil {
			a.errorf(diag.Span{}, diag.ProjectionRule, "select output: %s (use 'as' aliases)", strings.TrimPrefix(err.Error(), "graql: "))
		} else {
			a.lintDuplicateProj(s, out)
		}

		// Order-by keys resolve against the output schema.
		for _, k := range s.OrderBy {
			col := out.OutSchema.Index(k.Ref.Name)
			if k.Ref.Qualifier != "" || col < 0 {
				a.errorf(k.Ref.Loc, diag.OrderByRule, "order by %s does not name an output column", k.Ref)
				continue
			}
			out.OrderBy = append(out.OrderBy, OrderKey{Col: col, Desc: k.Desc})
		}
	}
	if a.hasErrors() {
		return nil
	}
	return out
}

func (a *Analyzer) analyzeItem(it ast.SelectItem, t *table.Table, sel *Select) (Item, table.ColumnDef, bool) {
	src := []*EdgeSource{{Name: t.Name, Tbl: t}}
	env := edgeSourceTypeEnv{sources: src}
	name := it.Alias

	if it.AggStar {
		if name == "" {
			name = "count"
		}
		return Item{Agg: ast.AggCount, AggStar: true, Col: -1, Name: name},
			table.ColumnDef{Name: name, Type: value.Int}, true
	}
	if it.Agg != ast.AggNone {
		r, ok := it.Expr.(*expr.Ref)
		if !ok {
			a.errorf(it.Loc, diag.BadAggregate, "aggregate %s requires a column argument", it.Agg)
			return Item{}, table.ColumnDef{}, false
		}
		col, err := resolveTableCol(r, t)
		if err != nil {
			a.addErr(err, diag.UnknownColumn)
			return Item{}, table.ColumnDef{}, false
		}
		inType := t.Schema()[col].Type
		if (it.Agg == ast.AggSum || it.Agg == ast.AggAvg) && !inType.Kind.Numeric() {
			a.errorf(r.Loc, diag.BadAggregate, "%s over non-numeric column %s (%s)", it.Agg, r.Name, inType)
			return Item{}, table.ColumnDef{}, false
		}
		if name == "" {
			name = fmt.Sprintf("%s_%s", it.Agg, r.Name)
		}
		outType := inType
		switch it.Agg {
		case ast.AggCount:
			outType = value.Int
		case ast.AggAvg:
			outType = value.Float
		}
		return Item{Agg: it.Agg, Col: col, Name: name}, table.ColumnDef{Name: name, Type: outType}, true
	}

	// Plain reference or computed expression.
	if r, ok := it.Expr.(*expr.Ref); ok {
		col, err := resolveTableCol(r, t)
		if err != nil {
			a.addErr(err, diag.UnknownColumn)
			return Item{}, table.ColumnDef{}, false
		}
		if sel.Grouped && !containsInt(sel.GroupBy, col) {
			a.errorf(r.Loc, diag.GroupingRule, "column %s must appear in group by", r.Name)
			return Item{}, table.ColumnDef{}, false
		}
		if name == "" {
			name = t.Schema()[col].Name
		}
		return Item{Agg: ast.AggNone, Col: col, Name: name},
			table.ColumnDef{Name: name, Type: t.Schema()[col].Type}, true
	}
	if sel.Grouped {
		a.errorf(it.Loc, diag.GroupingRule, "computed expressions are not allowed with group by")
		return Item{}, table.ColumnDef{}, false
	}
	e, ok := a.resolveTableExpr(it.Expr, src)
	if !ok {
		return Item{}, table.ColumnDef{}, false
	}
	e = a.coerceDates(e, env)
	typ, err := e.Check(env)
	if err != nil {
		a.addErr(err, diag.TypeMismatch)
		return Item{}, table.ColumnDef{}, false
	}
	if !a.checkConstEval(e) {
		return Item{}, table.ColumnDef{}, false
	}
	if name == "" {
		name = "expr"
	}
	e = a.foldExpr(e)
	return Item{Agg: ast.AggNone, Col: -1, Expr: e, Name: name}, table.ColumnDef{Name: name, Type: typ}, true
}

func resolveTableCol(r *expr.Ref, t *table.Table) (int, error) {
	if r.Qualifier != "" && !strings.EqualFold(r.Qualifier, t.Name) {
		return -1, &diag.Diagnostic{
			Severity: diag.SevError, Code: diag.UnknownSource, Span: r.Loc,
			Msg: fmt.Sprintf("unknown source %s (selecting from table %s)", r.Qualifier, t.Name),
		}
	}
	col := t.Schema().Index(r.Name)
	if col < 0 {
		return -1, &diag.Diagnostic{
			Severity: diag.SevError, Code: diag.UnknownColumn, Span: r.Loc,
			Msg: fmt.Sprintf("table %s has no column %s", t.Name, r.Name),
		}
	}
	return col, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
