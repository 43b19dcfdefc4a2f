// Package ast defines the abstract syntax of GraQL scripts: the data
// definition statements of paper §II-A (create table / create vertex /
// create edge / ingest) and the query statements of §II-B–C (select over
// graph paths or tables, with labels, variant steps, path regular
// expressions, and into table/subgraph result capture).
//
// Every node renders back to GraQL source via String; the parser tests use
// this for round-trip checking.
package ast

import (
	"fmt"
	"strings"

	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/value"
)

// Script is a parsed GraQL script: an ordered statement list
// Ω = q1, q2, … qn (paper §III).
type Script struct {
	Stmts []Stmt
}

func (s *Script) String() string {
	var b strings.Builder
	for i, st := range s.Stmts {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(st.String())
	}
	return b.String()
}

// Stmt is any GraQL statement.
type Stmt interface {
	fmt.Stringer
	stmt()
	// Span locates the statement in the source script. Statements built
	// programmatically (e.g. decoded from the binary IR) have a zero span.
	Span() diag.Span
}

// ColDef is one typed column in a create table statement.
type ColDef struct {
	Name    string
	Type    value.Type
	NamePos diag.Span
}

// CreateTable declares a strongly typed table (Appendix A style).
type CreateTable struct {
	Name    string
	Cols    []ColDef
	Loc     diag.Span
	NamePos diag.Span
}

func (*CreateTable) stmt() {}

// Span implements Stmt.
func (s *CreateTable) Span() diag.Span { return s.Loc }

func (s *CreateTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "create table %s(\n", s.Name)
	for i, c := range s.Cols {
		fmt.Fprintf(&b, "  %s %s", c.Name, c.Type)
		if i < len(s.Cols)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString(")")
	return b.String()
}

// CreateVertex declares a vertex type as a view over a table (Fig. 2,
// Eq. 1): create vertex V(key...) from table T [where φ].
type CreateVertex struct {
	Name    string
	KeyCols []string
	From    string
	Where   expr.Expr

	Loc     diag.Span
	NamePos diag.Span
	KeyPos  []diag.Span // parallel to KeyCols
	FromPos diag.Span
}

func (*CreateVertex) stmt() {}

// Span implements Stmt.
func (s *CreateVertex) Span() diag.Span { return s.Loc }

func (s *CreateVertex) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "create vertex %s(%s)\nfrom table %s",
		s.Name, strings.Join(s.KeyCols, ", "), s.From)
	if s.Where != nil {
		fmt.Fprintf(&b, "\nwhere %s", s.Where)
	}
	return b.String()
}

// CreateEdge declares an edge type connecting two vertex types (Fig. 3,
// Eq. 2): create edge E with vertices (S [as A], T [as B])
// [from table A1, A2...] where φ. The order of the vertex types gives the
// edge direction.
type CreateEdge struct {
	Name       string
	SrcType    string
	SrcAlias   string
	DstType    string
	DstAlias   string
	FromTables []string
	Where      expr.Expr

	Loc     diag.Span
	NamePos diag.Span
	SrcPos  diag.Span
	DstPos  diag.Span
	FromPos []diag.Span // parallel to FromTables
}

func (*CreateEdge) stmt() {}

// Span implements Stmt.
func (s *CreateEdge) Span() diag.Span { return s.Loc }

func (s *CreateEdge) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "create edge %s with\nvertices (%s", s.Name, s.SrcType)
	if s.SrcAlias != "" {
		fmt.Fprintf(&b, " as %s", s.SrcAlias)
	}
	fmt.Fprintf(&b, ", %s", s.DstType)
	if s.DstAlias != "" {
		fmt.Fprintf(&b, " as %s", s.DstAlias)
	}
	b.WriteString(")")
	if len(s.FromTables) > 0 {
		fmt.Fprintf(&b, "\nfrom table %s", strings.Join(s.FromTables, ", "))
	}
	if s.Where != nil {
		fmt.Fprintf(&b, "\nwhere %s", s.Where)
	}
	return b.String()
}

// Ingest populates a table (and the vertex/edge views derived from it)
// from a CSV file, atomically (paper §II-A2).
type Ingest struct {
	Table string
	File  string

	Loc      diag.Span
	TablePos diag.Span
}

func (*Ingest) stmt() {}

// Span implements Stmt.
func (s *Ingest) Span() diag.Span { return s.Loc }

func (s *Ingest) String() string {
	return fmt.Sprintf("ingest table %s %s", s.Table, quoteFile(s.File))
}

// Output writes a table to a CSV file — the engine's "eventual output to
// files" on the shared filesystem (paper §III).
type Output struct {
	Table string
	File  string

	Loc      diag.Span
	TablePos diag.Span
}

func (*Output) stmt() {}

// Span implements Stmt.
func (s *Output) Span() diag.Span { return s.Loc }

func (s *Output) String() string {
	return fmt.Sprintf("output table %s %s", s.Table, quoteFile(s.File))
}

// quoteFile renders a file name as a string literal, doubling an
// embedded quote as string literals do.
func quoteFile(name string) string {
	return "'" + strings.ReplaceAll(name, "'", "''") + "'"
}

// AggFunc enumerates aggregate functions in select items.
type AggFunc uint8

// Aggregates (AggNone marks a plain expression item).
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return ""
}

// SelectItem is one projection item: an expression or aggregate, with an
// optional "as" alias (Table I's aliasing operation).
type SelectItem struct {
	Agg     AggFunc
	AggStar bool // count(*)
	Expr    expr.Expr
	Alias   string
	Loc     diag.Span
}

func (it SelectItem) String() string {
	var s string
	switch {
	case it.AggStar:
		s = "count(*)"
	case it.Agg != AggNone:
		s = fmt.Sprintf("%s(%s)", it.Agg, it.Expr)
	default:
		s = it.Expr.String()
	}
	if it.Alias != "" {
		s += " as " + it.Alias
	}
	return s
}

// OrderKey is one "order by" column, referenced by (possibly aliased) name.
type OrderKey struct {
	Ref  *expr.Ref
	Desc bool
}

func (k OrderKey) String() string {
	s := k.Ref.String()
	if k.Desc {
		s += " desc"
	}
	return s
}

// IntoKind selects how query results are captured (paper §II-C).
type IntoKind uint8

// Result capture destinations.
const (
	IntoNone IntoKind = iota // return to client
	IntoTable
	IntoSubgraph
)

// Into is the "into table T" / "into subgraph G" result clause.
type Into struct {
	Kind    IntoKind
	Name    string
	NamePos diag.Span
}

func (c Into) String() string {
	switch c.Kind {
	case IntoTable:
		return " into table " + c.Name
	case IntoSubgraph:
		return " into subgraph " + c.Name
	}
	return ""
}

// Select is the unified select statement: either over a graph path pattern
// ("from graph ...") or over a table ("from table T") with the relational
// operations of Table I.
type Select struct {
	// Explain reports the execution plan instead of running the query
	// (the §III-B dynamic planning decisions, made inspectable).
	Explain bool
	// Analyze (with Explain) executes the query with per-operator
	// instrumentation and reports the plan with actual row counts and
	// wall times ("explain analyze select …").
	Analyze  bool
	Top      int // 0 = no top clause
	Distinct bool
	Star     bool
	Items    []SelectItem

	Graph     *PathOr // non-nil for "from graph"
	FromTable string  // non-empty for "from table"

	Where   expr.Expr // table selects only
	GroupBy []*expr.Ref
	OrderBy []OrderKey
	Into    Into

	Loc          diag.Span
	FromTablePos diag.Span
}

func (*Select) stmt() {}

// Span implements Stmt.
func (s *Select) Span() diag.Span { return s.Loc }

func (s *Select) String() string {
	var b strings.Builder
	if s.Explain {
		b.WriteString("explain ")
		if s.Analyze {
			b.WriteString("analyze ")
		}
	}
	b.WriteString("select ")
	if s.Top > 0 {
		fmt.Fprintf(&b, "top %d ", s.Top)
	}
	if s.Distinct {
		b.WriteString("distinct ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	if s.Graph != nil {
		b.WriteString(" from graph ")
		b.WriteString(s.Graph.String())
	} else {
		b.WriteString(" from table ")
		b.WriteString(s.FromTable)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " where %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.String())
		}
	}
	b.WriteString(s.Into.String())
	return b.String()
}
