// Static analysis tests: the §III-A correctness checks. The catalog is
// built through the engine (CheckOnly mode), then individual statements
// are analysed and the reported diagnostics inspected by their stable
// GQL#### codes rather than by message substrings.
package sema_test

import (
	"fmt"
	"strings"
	"testing"

	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/expr"
	"graql/internal/parser"
	"graql/internal/sema"
)

// fixtureDDL is the shared static-analysis schema: three tables, three
// vertex types and two edges (also the FuzzAnalyze catalog).
const fixtureDDL = `
create table Products(
  id varchar(10),
  label varchar(20),
  producer varchar(10),
  price float,
  added date
)
create table Producers(id varchar(10), country varchar(10))
create table Reviews(id varchar(10), reviewFor varchar(10), stars integer)

create vertex ProductVtx(id) from table Products
create vertex ProducerVtx(id) from table Producers
create vertex ReviewVtx(id) from table Reviews

create edge producer with
vertices (ProductVtx, ProducerVtx)
where ProductVtx.producer = ProducerVtx.id

create edge reviewFor with
vertices (ReviewVtx, ProductVtx)
where ReviewVtx.reviewFor = ProductVtx.id
`

// fixture builds a catalog with a small typed schema (no data needed for
// static analysis).
func fixture(t *testing.T) *exec.Engine {
	t.Helper()
	e := exec.New(exec.Options{CheckOnly: true, ReverseIndexes: true})
	if _, err := e.ExecScript(fixtureDDL, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// analyze parses one statement and runs static analysis against the
// fixture catalog.
func analyze(t *testing.T, e *exec.Engine, src string) (sema.Stmt, error) {
	t.Helper()
	st, diags := vet(t, e, src)
	return st, diags.Err()
}

// vet parses one statement and returns the full diagnostic list.
func vet(t *testing.T, e *exec.Engine, src string) (sema.Stmt, diag.List) {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if len(script.Stmts) != 1 {
		t.Fatalf("want one statement, got %d", len(script.Stmts))
	}
	an := &sema.Analyzer{Cat: e.Cat}
	return an.Vet(script.Stmts[0])
}

// wantCode asserts analysis fails with an error carrying the given code.
func wantCode(t *testing.T, e *exec.Engine, src string, code diag.Code) {
	t.Helper()
	st, diags := vet(t, e, src)
	errs := diags.Errors()
	if st != nil || len(errs) == 0 {
		t.Fatalf("expected %s error for:\n%s", code, src)
	}
	for _, d := range errs {
		if d.Code == code {
			if !diag.Registered(d.Code) {
				t.Errorf("code %s is not registered", d.Code)
			}
			return
		}
	}
	t.Errorf("no %s among %v for:\n%s", code, errs, src)
}

// wantWarn asserts analysis succeeds but reports a warning with the code.
func wantWarn(t *testing.T, e *exec.Engine, src string, code diag.Code) {
	t.Helper()
	st, diags := vet(t, e, src)
	if st == nil {
		t.Fatalf("unexpected errors %v for:\n%s", diags, src)
	}
	for _, d := range diags {
		if d.Severity == diag.SevWarning && d.Code == code {
			return
		}
	}
	t.Errorf("no %s warning among %v for:\n%s", code, diags, src)
}

func wantOK(t *testing.T, e *exec.Engine, src string) {
	t.Helper()
	if _, err := analyze(t, e, src); err != nil {
		t.Errorf("unexpected error: %v\n%s", err, src)
	}
}

// TestTypeErrors reproduces the paper's flagship static check: "is the
// query comparing an attribute with a constant (or other attribute) of
// the wrong type? (e.g. comparing a date to a floating-point number)".
func TestTypeErrors(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select id from table Products where added > 3.5`, diag.TypeMismatch)
	wantCode(t, e, `select id from table Products where price = 'cheap'`, diag.TypeMismatch)
	wantCode(t, e, `select id from table Products where id + 1 > 2`, diag.NumberRequired)
	wantCode(t, e, `select * from graph ProductVtx (added > 3.5) into subgraph g`, diag.TypeMismatch)
	// Strings against dates coerce (natural literal spelling).
	wantOK(t, e, `select id from table Products where added >= '2008-01-01'`)
	// Parameters are statically wildcards.
	wantOK(t, e, `select id from table Products where added >= %D%`)
}

// TestEntityKindErrors covers "is the query using an entity of correct
// type for certain operations? (e.g. a table name should be used when a
// table is required, rather than a vertex type name)".
func TestEntityKindErrors(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select id from table ProductVtx`, diag.WrongEntityKind)
	wantCode(t, e, `select id from table producer`, diag.WrongEntityKind)
	wantCode(t, e, `create vertex V2(id) from table ProductVtx`, diag.WrongEntityKind)
	wantCode(t, e, `select * from graph Products ( ) into subgraph g`, diag.WrongEntityKind)
	wantCode(t, e, `select * from graph producer ( ) into subgraph g`, diag.WrongEntityKind)
	wantCode(t, e, `select * from graph ProductVtx ( ) --ProducerVtx--> ProducerVtx ( ) into subgraph g`, diag.WrongEntityKind)
}

func TestUnknownNames(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select id from table Missing`, diag.UnknownTable)
	wantCode(t, e, `select missing from table Products`, diag.UnknownColumn)
	wantCode(t, e, `select * from graph Nope ( ) into subgraph g`, diag.UnknownVertex)
	wantCode(t, e, `select * from graph ProductVtx ( ) --nope--> ProducerVtx ( ) into subgraph g`, diag.UnknownEdge)
	wantCode(t, e, `select * from graph ProductVtx (nope = 1) into subgraph g`, diag.UnknownColumn)
	wantCode(t, e, `select * from graph lost.ProductVtx ( ) into subgraph g`, diag.UnknownSubgraph)
}

// TestPathWellFormedness covers "is a path query correctly formulated?".
func TestPathWellFormedness(t *testing.T) {
	e := fixture(t)
	// Edge endpoint types must match the declaration.
	wantCode(t, e, `select * from graph ProducerVtx ( ) --producer--> ProductVtx ( ) into subgraph g`,
		diag.MalformedPath)
	// Direction matters: producer goes Product→Producer.
	wantOK(t, e, `select * from graph ProducerVtx ( ) <--producer-- ProductVtx ( ) into subgraph g`)
	// And-composition must share a label.
	wantCode(t, e, `select * from graph
ProductVtx ( ) --producer--> ProducerVtx ( )
and (ReviewVtx ( ) --reviewFor--> ProductVtx ( ))
into subgraph g`, diag.LabelRule)
	wantOK(t, e, `select * from graph
foreach p: ProductVtx ( ) --producer--> ProducerVtx ( )
and (ReviewVtx ( ) --reviewFor--> p)
into subgraph g`)
}

func TestVariantStepRestrictions(t *testing.T) {
	e := fixture(t)
	// "Conditional expressions for variant query steps are not allowed".
	wantCode(t, e, `select * from graph ProductVtx ( ) --[ ]--> [ ] (id = 'x') into subgraph g`,
		diag.VariantRestrict)
	// Attributes of variant steps cannot be referenced or projected.
	wantCode(t, e, `select x.id from graph ProductVtx ( ) <--[ ]-- def x: [ ]`, diag.VariantRestrict)
	// Variant steps cannot appear in star table output.
	wantCode(t, e, `select * from graph ProductVtx ( ) <--[ ]-- [ ] into table T`, diag.VariantRestrict)
	// ... but are fine in subgraphs (Fig. 9).
	wantOK(t, e, `select * from graph ProductVtx (id = 'p1') <--[ ]-- [ ] into subgraph g`)
}

func TestLabelRules(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select * from graph
def x: ProductVtx ( ) --producer--> def x: ProducerVtx ( ) into subgraph g`, diag.DuplicateName)
	// Unknown label reference reads as unknown vertex type.
	wantCode(t, e, `select * from graph ProductVtx ( ) --producer--> y into subgraph g`, diag.UnknownVertex)
	// Edge labels cannot stand as vertex steps.
	wantCode(t, e, `select * from graph
ProductVtx ( ) --def f: producer--> ProducerVtx ( ) and (f --producer--> ProducerVtx ( ))
into subgraph g`, diag.LabelRule)
}

// TestOutputAmbiguity covers "the output steps must be unambiguous ...
// if they are not then labels can be used to disambiguate them".
func TestOutputAmbiguity(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select ProductVtx from graph
ProductVtx ( ) --producer--> ProducerVtx ( ) <--producer-- ProductVtx ( )`,
		diag.AmbiguousName)
	wantOK(t, e, `select y from graph
ProductVtx ( ) --producer--> ProducerVtx ( ) <--producer-- def y: ProductVtx ( )`)
}

func TestGraphSelectRestrictions(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select count(*) from graph ProductVtx ( ) --producer--> ProducerVtx ( )`,
		diag.GroupingRule)
	wantCode(t, e, `select id from graph ProductVtx ( ) --producer--> ProducerVtx ( ) group by id`,
		diag.GroupingRule)
	wantCode(t, e, `select id from graph ProductVtx ( ) --producer--> ProducerVtx ( ) where id = 'x'`,
		diag.StatementMisuse)
	wantCode(t, e, `select ProductVtx.id from graph ProductVtx ( ) --producer--> ProducerVtx ( ) into subgraph g`,
		diag.ProjectionRule)
}

func TestTableSelectRules(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `select label, count(*) from table Products group by id`, diag.GroupingRule)
	wantCode(t, e, `select sum(label) from table Products`, diag.BadAggregate)
	wantCode(t, e, `select id from table Products order by label`, diag.OrderByRule)
	wantCode(t, e, `select id, id from table Products`, diag.ProjectionRule)
	wantOK(t, e, `select id, id as id2 from table Products`)
	wantOK(t, e, `select id, count(*) as n from table Products group by id order by n desc`)
}

func TestDuplicateDDLNames(t *testing.T) {
	e := fixture(t)
	wantCode(t, e, `create table Products(id integer)`, diag.DuplicateName)
	wantCode(t, e, `create vertex ProductVtx(id) from table Products`, diag.DuplicateName)
	wantCode(t, e, `create table ProductVtx(id integer)`, diag.DuplicateName)
	wantCode(t, e, `create edge producer with vertices (ProductVtx, ProducerVtx) where ProductVtx.producer = ProducerVtx.id`, diag.DuplicateName)
}

// TestIntoTableOverViewTable: a select cannot replace a table a vertex or
// edge declaration reads (a vertex's from table, an edge's from tables or
// where-clause qualifiers), in Vet and in Analyze alike.
func TestIntoTableOverViewTable(t *testing.T) {
	e := fixture(t)
	if _, err := e.ExecScript(`create table Tags(product varchar(10), producer varchar(10))
create edge tagged with vertices (ProductVtx, ProducerVtx) from table Tags
where Tags.product = ProductVtx.id and Tags.producer = ProducerVtx.id`, nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`select id, label, producer, price, added from table Products into table Products`,
		`select product, producer from table Tags into table Tags`,
		`select ProductVtx.id from graph ProductVtx ( ) into table producers`,
	} {
		wantCode(t, e, q, diag.DuplicateName)
		if _, err := analyze(t, e, q); err == nil || !strings.Contains(err.Error(), string(diag.DuplicateName)) {
			t.Errorf("Analyze: err = %v, want %s\n%s", err, diag.DuplicateName, q)
		}
	}
	wantOK(t, e, `select id, label from table Products into table Cheap`)
}

func TestEdgeDeclarationAnalysis(t *testing.T) {
	e := fixture(t)
	// Self-edges need aliases.
	wantCode(t, e, `create edge similar with vertices (ProductVtx, ProductVtx) where ProductVtx.id = ProductVtx.id`, diag.EdgeDeclRule)
	wantOK(t, e, `create edge similar with vertices (ProductVtx as A, ProductVtx as B) where A.producer = B.producer`)
	// Where clause must join the endpoints.
	wantCode(t, e, `create edge broken with vertices (ProductVtx, ProducerVtx) where ProductVtx.price > 3`, diag.EdgeDeclRule)
	// Cross-source non-equality conditions are not supported.
	wantCode(t, e, `create edge broken with vertices (ProductVtx, ProducerVtx) where ProductVtx.producer > ProducerVtx.id`, diag.EdgeDeclRule)
	// Unqualified columns in edge declarations are ambiguous by design.
	wantCode(t, e, `create edge broken with vertices (ProductVtx, ProducerVtx) where producer = id`, diag.UnqualifiedRef)
}

// TestMultiErrorRecovery is the acceptance criterion for error-recovering
// analysis: a statement with several independent mistakes reports all of
// them in one pass, each with a stable code and a real source position,
// ordered by position.
func TestMultiErrorRecovery(t *testing.T) {
	e := fixture(t)
	src := `select missing1, missing2, sum(label) from table Products where added > 3.5`
	_, diags := vet(t, e, src)
	errs := diags.Errors()
	if len(errs) < 4 {
		t.Fatalf("want >= 4 errors, got %d: %v", len(errs), errs)
	}
	wantCodes := map[diag.Code]int{
		diag.UnknownColumn: 2, // missing1, missing2
		diag.BadAggregate:  1, // sum over varchar
		diag.TypeMismatch:  1, // date > float
	}
	got := map[diag.Code]int{}
	for _, d := range errs {
		got[d.Code]++
		if !d.Span.Known() {
			t.Errorf("diagnostic %v has no source position", d)
		}
		if !diag.Registered(d.Code) {
			t.Errorf("code %s is not registered", d.Code)
		}
	}
	for code, n := range wantCodes {
		if got[code] != n {
			t.Errorf("code %s: got %d, want %d (all: %v)", code, got[code], n, errs)
		}
	}
	for i := 1; i < len(errs); i++ {
		if errs[i].Span.Start < errs[i-1].Span.Start {
			t.Errorf("diagnostics not sorted by position: %v", errs)
		}
	}
}

// TestErrStaticAnalysis checks the sentinel contract: every analysis
// failure errors.Is-matches diag.ErrStaticAnalysis.
func TestErrStaticAnalysis(t *testing.T) {
	e := fixture(t)
	for _, src := range []string{
		`select id from table Missing`,
		`select missing1, missing2 from table Products`,
	} {
		_, err := analyze(t, e, src)
		if err == nil {
			t.Fatalf("expected error for %s", src)
		}
		if !errorsIs(err, diag.ErrStaticAnalysis) {
			t.Errorf("error %v does not wrap ErrStaticAnalysis", err)
		}
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestLintWarnings covers the GQL10xx tier: suspicious-but-legal
// predicates and projections warn without blocking execution.
func TestLintWarnings(t *testing.T) {
	e := fixture(t)
	// Unsatisfiable interval: x > 5 and x < 3.
	wantWarn(t, e, `select id from table Products where price > 5 and price < 3`, diag.AlwaysFalse)
	wantWarn(t, e, `select id from table Products where price = 2 and price = 3`, diag.AlwaysFalse)
	// Constant-folded outcomes.
	wantWarn(t, e, `select id from table Products where 2 > 3`, diag.AlwaysFalse)
	wantWarn(t, e, `select id from table Products where 1 < 2`, diag.AlwaysTrue)
	// NULL-typed vacuous comparison.
	wantWarn(t, e, `select id from table Products where id = null`, diag.NullCompare)
	// Unused label.
	wantWarn(t, e, `select ProducerVtx.country from graph
def x: ProductVtx ( ) --producer--> ProducerVtx ( )`, diag.UnusedLabel)
	// A referenced label must not warn.
	st, diags := vet(t, e, `select x.id from graph
def x: ProductVtx ( ) --producer--> ProducerVtx ( )`)
	if st == nil {
		t.Fatalf("unexpected errors %v", diags)
	}
	for _, d := range diags {
		if d.Code == diag.UnusedLabel {
			t.Errorf("label x is used; spurious warning %v", d)
		}
	}
	// Duplicate projected column under two aliases.
	wantWarn(t, e, `select id, id as id2 from table Products`, diag.DuplicateProj)
}

// TestConstantFolding checks that resolved predicates are simplified
// before execution (and that NoFold preserves the original shape).
func TestConstantFolding(t *testing.T) {
	e := fixture(t)
	src := `select id from table Products where price > 2 + 3`

	st, err := analyze(t, e, src)
	if err != nil {
		t.Fatal(err)
	}
	w := st.(*sema.Select).Where
	b, ok := w.(*expr.Binary)
	if !ok {
		t.Fatalf("where = %T (%s), want binary", w, w)
	}
	if _, ok := b.R.(*expr.Const); !ok {
		t.Errorf("rhs not folded to a constant: %s", b.R)
	}

	script, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	an := &sema.Analyzer{Cat: e.Cat, NoFold: true}
	st2, err := an.Analyze(script.Stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	b2 := st2.(*sema.Select).Where.(*expr.Binary)
	if _, ok := b2.R.(*expr.Binary); !ok {
		t.Errorf("NoFold must keep the original shape, got %s", b2.R)
	}

	// An always-true filter is dropped entirely (exact fold only).
	st3, err := analyze(t, e, `select id from table Products where 1 < 2`)
	if err != nil {
		t.Fatal(err)
	}
	if st3.(*sema.Select).Where != nil {
		t.Errorf("always-true filter not dropped: %s", st3.(*sema.Select).Where)
	}
}

func TestAnalyzedShapes(t *testing.T) {
	e := fixture(t)
	st, err := analyze(t, e, `select TypeCount.id from graph
ReviewVtx ( ) --reviewFor--> def TypeCount: ProductVtx (price > 10)`)
	if err == nil {
		sel := st.(*sema.Select)
		if len(sel.GraphAlts) != 1 {
			t.Fatalf("alts = %d", len(sel.GraphAlts))
		}
		pat := sel.GraphAlts[0].Pattern
		if len(pat.Nodes) != 2 || len(pat.Edges) != 1 {
			t.Errorf("pattern shape %d nodes %d edges", len(pat.Nodes), len(pat.Edges))
		}
		// reviewFor is declared Review→Product and the path writes the
		// Review step first (node 0), so the normalised edge is 0→1.
		if pat.Edges[0].Src != 0 || pat.Edges[0].Dst != 1 {
			t.Errorf("edge direction normalised wrong: %d→%d", pat.Edges[0].Src, pat.Edges[0].Dst)
		}
	} else {
		t.Fatal(err)
	}
}

func TestSetLabelCopiesCondition(t *testing.T) {
	e := fixture(t)
	// A same-path set-label reference gets the defining step's type and
	// condition (Eq. 7): the reference node's condition must not be nil.
	st, err := analyze(t, e, `select * from graph
def y: ProductVtx (price > 10) --producer--> ProducerVtx ( ) <--producer-- y
into subgraph g`)
	if err != nil {
		t.Fatal(err)
	}
	pat := st.(*sema.Select).GraphAlts[0].Pattern
	if len(pat.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3 (set label makes a fresh node)", len(pat.Nodes))
	}
	if pat.Nodes[2].Cond == nil {
		t.Error("set-label reference must copy the defining condition")
	}
	if pat.Nodes[2].Type != pat.Nodes[0].Type {
		t.Error("set-label reference must copy the defining type")
	}
}

func TestForeachUnifies(t *testing.T) {
	e := fixture(t)
	st, err := analyze(t, e, `select * from graph
foreach y: ProductVtx ( ) --producer--> ProducerVtx ( ) <--producer-- y
into subgraph g`)
	if err != nil {
		t.Fatal(err)
	}
	pat := st.(*sema.Select).GraphAlts[0].Pattern
	if len(pat.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 (foreach unifies into a cycle)", len(pat.Nodes))
	}
}

// TestManyToOneHidesNonKeyAttributes: a many-to-one vertex type shows only
// its key columns (paper §II-A, Figs. 4–5), and its attributes are
// addressed by base-table column, so a column number alone does not say
// whether an attribute is visible. Every route that resolves a name must
// refuse a non-key column, each with its own diagnostic, and the routes
// that expand a whole step must list the key columns only.
func TestManyToOneHidesNonKeyAttributes(t *testing.T) {
	e := exec.New(exec.Options{ReverseIndexes: true})
	if _, err := e.ExecScript(fixtureDDL+`
insert into Producers values ('p1', 'US'), ('p2', 'US'), ('p3', 'DE')
create vertex ProducerCountry(country) from table Producers
create edge made with vertices (ProducerVtx, ProducerCountry) where ProducerVtx.country = ProducerCountry.country
`, nil); err != nil {
		t.Fatal(err)
	}
	if vt := e.Cat.Graph().VertexType("ProducerCountry"); vt.OneToOne {
		t.Fatal("ProducerCountry must be many-to-one")
	}
	for _, c := range []struct {
		route, src string
		want       string // the one diagnostic, or the output schema
	}{
		{"self condition", `select * from graph ProducerCountry (id = 'p1') into subgraph g`,
			"GQL0104 1:38 vertex type ProducerCountry has no attribute id"},
		{"label-qualified, own step", `select * from graph def c: ProducerCountry (c.id = 'p1') into subgraph g`,
			"GQL0104 1:45 step c has no attribute id"},
		{"label-qualified, other step", `select * from graph def c: ProducerCountry ( ) <--made-- ProducerVtx (c.id = 'p1') into subgraph g`,
			"GQL0104 1:71 step c has no attribute id"},
		{"type-qualified, own step", `select * from graph ProducerCountry (ProducerCountry.id = 'p1') into subgraph g`,
			"GQL0104 1:38 step ProducerCountry has no attribute id"},
		{"type-qualified, other step", `select * from graph ProducerCountry ( ) <--made-- ProducerVtx (ProducerCountry.id = 'p1') into subgraph g`,
			"GQL0104 1:64 step ProducerCountry has no attribute id"},
		{"label-qualified projection", `select c.id from graph def c: ProducerCountry ( ) into table T`,
			"GQL0104 1:8 vertex type ProducerCountry has no attribute id"},
		{"type-qualified projection", `select ProducerCountry.id from graph ProducerCountry ( ) into table T`,
			"GQL0104 1:8 vertex type ProducerCountry has no attribute id"},
		{"select *", `select * from graph ProducerCountry ( ) <--made-- ProducerVtx ( ) into table T`,
			"(ProducerCountry.country varchar(10), ProducerVtx.id varchar(10), ProducerVtx.country varchar(10))"},
		{"whole-step projection", `select c from graph def c: ProducerCountry ( ) into table T`,
			"(c varchar(10))"},
		{"create edge where", `create edge e2 with vertices (ProducerCountry, ProducerVtx) where ProducerCountry.id = ProducerVtx.id`,
			"GQL0104 1:67 ProducerCountry has no column id"},
		{"create edge where, aliased", `create edge e2 with vertices (ProducerCountry as C, ProducerVtx) where C.id = ProducerVtx.id`,
			"GQL0104 1:72 C has no column id"},
		{"create edge filter", `create edge e2 with vertices (ProducerCountry, ProducerVtx) where ProducerCountry.country = ProducerVtx.country and ProducerCountry.id = 'x'`,
			"GQL0104 1:117 ProducerCountry has no column id"},
	} {
		st, ds := vet(t, e, c.src)
		var got string
		if sel, ok := st.(*sema.Select); ok && len(ds) == 0 {
			got = fmt.Sprint(sel.OutSchema)
		} else if len(ds) == 1 {
			d := ds[0]
			got = fmt.Sprintf("%s %d:%d %s", d.Code, d.Span.Line, d.Span.Col, d.Msg)
		} else {
			got = fmt.Sprint(ds)
		}
		if got != c.want {
			t.Errorf("%s: got %s, want %s\n%s", c.route, got, c.want, c.src)
		}
	}
}
