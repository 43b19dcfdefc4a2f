package parser

import (
	"strings"
	"testing"

	"graql/internal/ast"
	"graql/internal/expr"
)

// paperCorpus holds GraQL renderings of every figure in the paper plus
// grammar corner cases; the round-trip test parses each, prints it, and
// re-parses to a fixpoint.
var paperCorpus = []string{
	// Appendix A style DDL.
	`create table Products(
  id varchar(10),
  label varchar(10),
  producer varchar(10),
  propertyNumeric_1 integer,
  price float,
  date date
)`,
	// Fig. 2 vertex declarations.
	`create vertex ProductVtx(id) from table Products`,
	`create vertex ProducerCountry(country) from table Producers`,
	`create vertex Cheap(id) from table Products where price < 100`,
	// Fig. 3 edge declarations.
	`create edge subclass with vertices (TypeVtx as A, TypeVtx as B) where A.subclassOf = B.id`,
	`create edge producer with vertices (ProductVtx, ProducerVtx) where ProductVtx.producer = ProducerVtx.id`,
	`create edge type with vertices (ProductVtx, TypeVtx) from table ProductTypes where ProductTypes.product = ProductVtx.id and ProductTypes.type = TypeVtx.id`,
	// Ingest (quoted and bare path forms).
	`ingest table Products 'products.csv'`,
	"ingest table Products products.csv",
	"ingest table Products data/products-v2.csv",
	`output table T1 'results.csv'`,
	"output table T1 out/results.csv",
	// Fig. 6 (Berlin Q2).
	`select y.id from graph
ProductVtx (id = %Product1%)
--feature--> FeatureVtx
<--feature-- def y: ProductVtx (id <> %Product1%)
into table T1`,
	// Fig. 7 (Berlin Q1).
	`select TypeVtx.id from graph
PersonVtx (country = %Country2%)
<--reviewer-- ReviewVtx
--reviewFor--> foreach y: ProductVtx
--producer--> ProducerVtx (country = %Country1%)
and (y --type--> TypeVtx)
into table T1`,
	// Table I relational operations.
	`select top 10 id, count(*) as groupCount from table T1 group by id order by groupCount desc`,
	`select distinct id from table T1`,
	`select avg(price) as p, min(price), max(price), sum(n) from table Offers where price > 10`,
	// Fig. 9 (variant steps).
	`select * from graph ProductVtx (id = %Product1%) <--[ ]-- [ ] into subgraph resultsG`,
	// Fig. 10 (path regular expressions).
	`select * from graph VertexA (a = 1) ( --[ ]--> [ ] )+ VertexB (b = 2) into subgraph r`,
	`select * from graph A ( ) ( --e--> B ( ) )* C ( ) into subgraph r`,
	"select * from graph A ( ) ( --e--> [ ] ){3} B ( ) into subgraph r",
	"select * from graph A ( ) ( --e--> [ ] ){2,5} B ( ) into subgraph r",
	// Fig. 11/12 (results as subgraphs, chaining).
	`select V0, Vn from graph V0 ( ) --E0--> Vn ( ) into subgraph resultsBE`,
	`select * from graph resQ1.Vn (x > 3) --E1--> V2 ( ) into subgraph resQ2`,
	// Eq. 12 (type matching with labels).
	`select * from graph def X: [ ] --[ ]--> X into subgraph cyc`,
	// Or-composition.
	`select a.id from graph def a: A ( ) --e--> B ( ) or def a: A ( ) --f--> C ( )`,
	// Edge conditions and labels.
	`select f.bytes from graph H (ip = '10.0.0.1') --def f: flow (bytes > 100)--> H2 ( )`,
	// Expressions.
	`select id from table T where (a + 2) * 3 >= b / 4 and not (c = 'x' or d <> 1.5)`,
	// Explain (§III-B planning made inspectable).
	`explain select y.id from graph A (id = 'a') --e--> def y: B ( )`,
	`explain select id, count(*) as n from table T group by id`,
	// Row-level DML.
	`insert into Products values (1, 'x', 'p1', 3, 9.5, '2008-01-01')`,
	`insert into Products(id, label) values (1, 'a'), (2, 'b'), (%P%, %L%)`,
	`update Products set price = price * 1.1, label = 'sale' where price < 100`,
	`update Products set price = %NewPrice%`,
	`delete from Products where price > 10 and label <> 'keep'`,
	`delete from Products`,
	`explain insert into Products(id) values (1)`,
	`explain analyze update Products set price = 0 where id = 1`,
	`explain analyze delete from Products where id = 2`,
}

func TestCorpusRoundTrip(t *testing.T) {
	for i, src := range paperCorpus {
		script, err := Parse(src)
		if err != nil {
			t.Fatalf("corpus[%d] failed to parse: %v\n%s", i, err, src)
		}
		printed := script.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("corpus[%d] reprint failed to parse: %v\nprinted:\n%s", i, err, printed)
		}
		if again.String() != printed {
			t.Errorf("corpus[%d] not a fixpoint:\nfirst:\n%s\nsecond:\n%s", i, printed, again.String())
		}
	}
}

func TestMultiStatementScript(t *testing.T) {
	script, err := Parse(`
create table T(a integer)
ingest table T t.csv
select a from table T
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Stmts) != 3 {
		t.Fatalf("statements = %d, want 3", len(script.Stmts))
	}
	if _, ok := script.Stmts[0].(*ast.CreateTable); !ok {
		t.Errorf("stmt 0 = %T", script.Stmts[0])
	}
	if ing, ok := script.Stmts[1].(*ast.Ingest); !ok || ing.File != "t.csv" {
		t.Errorf("stmt 1 = %#v", script.Stmts[1])
	}
}

func TestIngestPathStopsAtLineEnd(t *testing.T) {
	script, err := Parse("ingest table T a/b-c.csv\nselect x from table T")
	if err != nil {
		t.Fatal(err)
	}
	ing := script.Stmts[0].(*ast.Ingest)
	if ing.File != "a/b-c.csv" {
		t.Errorf("file = %q", ing.File)
	}
	if len(script.Stmts) != 2 {
		t.Errorf("statements = %d", len(script.Stmts))
	}
}

// TestQuotedFileRoundTrip: a file name holding a quote prints with the
// quote doubled, so the printed statement parses back to the same name.
func TestQuotedFileRoundTrip(t *testing.T) {
	for _, src := range []string{"ingest table T 'a''b.csv'", "output table T 'a''b'"} {
		script, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if printed := script.String(); printed != src {
			t.Errorf("%q prints as %q", src, printed)
		}
		again, err := Parse(script.String())
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, s := range []*ast.Script{script, again} {
			switch st := s.Stmts[0].(type) {
			case *ast.Ingest:
				files = append(files, st.File)
			case *ast.Output:
				files = append(files, st.File)
			}
		}
		if len(files) != 2 || files[0] != files[1] || !strings.Contains(files[0], "a'b") {
			t.Errorf("%q: file names %q, want a'b twice", src, files)
		}
	}
}

func TestPathStructure(t *testing.T) {
	script, err := Parse(`select * from graph
A (x = 1) --e--> def B: Bv ( ) <--f-- C ( ) into subgraph g`)
	if err != nil {
		t.Fatal(err)
	}
	sel := script.Stmts[0].(*ast.Select)
	path := sel.Graph.Terms[0].Paths[0]
	if len(path.Elems) != 5 {
		t.Fatalf("elements = %d, want 5", len(path.Elems))
	}
	v0 := path.Elems[0].(*ast.VertexStep)
	if v0.Name != "A" || v0.Cond == nil {
		t.Error("vertex step 0 wrong")
	}
	e0 := path.Elems[1].(*ast.EdgeStep)
	if !e0.Out || e0.Name != "e" {
		t.Error("edge step 0 should be an out-edge e")
	}
	v1 := path.Elems[2].(*ast.VertexStep)
	if v1.Label == nil || v1.Label.Kind != ast.LabelSet || v1.Label.Name != "B" {
		t.Error("def label missing")
	}
	e1 := path.Elems[3].(*ast.EdgeStep)
	if e1.Out || e1.Name != "f" {
		t.Error("edge step 1 should be an in-edge f")
	}
}

func TestEmptyParensIsNoFilter(t *testing.T) {
	script, err := Parse(`select * from graph A ( ) --e--> B ( ) into subgraph g`)
	if err != nil {
		t.Fatal(err)
	}
	path := script.Stmts[0].(*ast.Select).Graph.Terms[0].Paths[0]
	for _, el := range path.Elems {
		if v, ok := el.(*ast.VertexStep); ok && v.Cond != nil {
			t.Error("( ) must parse as no condition")
		}
	}
}

func TestRegexQuantifiers(t *testing.T) {
	parse := func(q string) *ast.RegexGroup {
		script, err := Parse("select * from graph A ( ) ( --e--> [ ] )" + q + " B ( ) into subgraph g")
		if err != nil {
			t.Fatalf("quantifier %q: %v", q, err)
		}
		return script.Stmts[0].(*ast.Select).Graph.Terms[0].Paths[0].Elems[1].(*ast.RegexGroup)
	}
	if g := parse("*"); g.Min != 0 || g.Max != -1 {
		t.Errorf("* = {%d,%d}", g.Min, g.Max)
	}
	if g := parse("+"); g.Min != 1 || g.Max != -1 {
		t.Errorf("+ = {%d,%d}", g.Min, g.Max)
	}
	if g := parse("{4}"); g.Min != 4 || g.Max != 4 {
		t.Errorf("{4} = {%d,%d}", g.Min, g.Max)
	}
	if g := parse("{2,6}"); g.Min != 2 || g.Max != 6 {
		t.Errorf("{2,6} = {%d,%d}", g.Min, g.Max)
	}
}

func TestAndOrComposition(t *testing.T) {
	script, err := Parse(`select * from graph
A ( ) --e--> foreach x: B ( )
and (x --f--> C ( ))
or D ( ) --g--> E ( )
into subgraph g`)
	if err != nil {
		t.Fatal(err)
	}
	or := script.Stmts[0].(*ast.Select).Graph
	if len(or.Terms) != 2 {
		t.Fatalf("or terms = %d", len(or.Terms))
	}
	if len(or.Terms[0].Paths) != 2 {
		t.Fatalf("and paths = %d", len(or.Terms[0].Paths))
	}
}

func TestSeededStep(t *testing.T) {
	script, err := Parse(`select * from graph resQ1.Vn (a = 1) --e--> B ( ) into subgraph r`)
	if err != nil {
		t.Fatal(err)
	}
	v := script.Stmts[0].(*ast.Select).Graph.Terms[0].Paths[0].Elems[0].(*ast.VertexStep)
	if v.SeedGraph != "resQ1" || v.Name != "Vn" || v.Cond == nil {
		t.Errorf("seeded step = %+v", v)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 = 7 and not 4 > 5")
	if err != nil {
		t.Fatal(err)
	}
	want := "(1 + 2 * 3 = 7 and not 4 > 5)"
	if e.String() != want {
		t.Errorf("precedence: %s, want %s", e, want)
	}
	b := e.(*expr.Binary)
	if b.Op != expr.OpAnd {
		t.Errorf("top op = %v", b.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"create",                                      // dangling
		"create table T()",                            // no columns
		"create table T(a blob)",                      // unknown type
		"create vertex V(id)",                         // missing from table
		"create edge E with vertices (A)",             // one endpoint
		"select from table T",                         // missing items
		"select a from",                               // dangling from
		"select a from graph",                         // missing path
		"select * from graph A ( ) --e--> ",           // dangling edge
		"select * from graph A ( ) ( --e--> B )",      // group without quantifier
		"select * from graph ( )",                     // not a path
		"ingest table",                                // missing name
		"ingest table T",                              // missing file
		"select a from table T order by",              // dangling order
		"select count(x from table T",                 // unbalanced paren
		"select sum(*) from table T",                  // * only for count
		"select * from graph A ( ) --e--> B ( ) into", // dangling into
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestKeywordsRejectedAsIdentifiers(t *testing.T) {
	if _, err := Parse("create table select(a integer)"); err == nil {
		t.Error("keyword as table name must fail")
	}
}

func TestStringsInPathConditions(t *testing.T) {
	script, err := Parse(`select * from graph A (name = 'it''s') --e--> B ( ) into subgraph g`)
	if err != nil {
		t.Fatal(err)
	}
	v := script.Stmts[0].(*ast.Select).Graph.Terms[0].Paths[0].Elems[0].(*ast.VertexStep)
	if !strings.Contains(v.Cond.String(), "it''s") {
		t.Errorf("cond = %s", v.Cond)
	}
}
