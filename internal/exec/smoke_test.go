package exec

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"graql/internal/value"
)

// memFS backs ingest statements with in-memory CSV files.
func memFS(files map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		data, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no such file %s", path)
		}
		return io.NopCloser(strings.NewReader(data)), nil
	}
}

func newTestEngine(files map[string]string) *Engine {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.FileOpener = memFS(files)
	return New(opts)
}

func mustExec(t *testing.T, e *Engine, script string, params map[string]value.Value) []Result {
	t.Helper()
	res, err := e.ExecScript(script, params)
	if err != nil {
		t.Fatalf("ExecScript: %v\nscript:\n%s", err, script)
	}
	return res
}

// TestManyToOneExportEdge reproduces the paper's Fig. 4–5 scenario:
// country vertices derived many-to-one from Producers/Vendors and an
// export edge from a 4-way join, yielding exactly the two edges US→CA and
// IT→CN.
func TestManyToOneExportEdge(t *testing.T) {
	files := map[string]string{
		"producers.csv": "1,US\n2,IT\n3,FR\n4,US\n",
		"vendors.csv":   "1,CA\n2,CN\n",
		"products.csv":  "1,1\n2,2\n",
		"offers.csv":    "1,1,1\n2,2,2\n",
	}
	e := newTestEngine(files)
	mustExec(t, e, `
create table Producers(id integer, country varchar(2))
create table Vendors(id integer, country varchar(2))
create table Products(id integer, producer integer)
create table Offers(id integer, product integer, vendor integer)

create vertex ProducerCountry(country) from table Producers
create vertex VendorCountry(country) from table Vendors

create edge export with
vertices (ProducerCountry, VendorCountry)
where Products.producer = Producers.id
and Producers.country = ProducerCountry.country
and Offers.product = Products.id
and Offers.vendor = Vendors.id
and Vendors.country = VendorCountry.country

ingest table Producers producers.csv
ingest table Vendors vendors.csv
ingest table Products products.csv
ingest table Offers offers.csv
`, nil)

	g := e.Cat.Graph()
	pc := g.VertexType("ProducerCountry")
	if pc == nil {
		t.Fatal("ProducerCountry missing")
	}
	if pc.Count() != 3 { // US, IT, FR
		t.Errorf("ProducerCountry count = %d, want 3", pc.Count())
	}
	if pc.OneToOne {
		t.Error("ProducerCountry should be a many-to-one mapping")
	}
	ex := g.EdgeType("export")
	if ex == nil {
		t.Fatal("export edge missing")
	}
	if ex.Count() != 2 {
		t.Fatalf("export edges = %d, want 2 (US→CA, IT→CN)", ex.Count())
	}
	got := map[string]bool{}
	for i := range ex.IDs() {
		s, d := ex.EdgeAt(i)
		got[pc.KeyString(s)+"->"+g.VertexType("VendorCountry").KeyString(d)] = true
	}
	if !got["US->CA"] || !got["IT->CN"] {
		t.Errorf("export edges = %v, want US->CA and IT->CN", got)
	}
}

const miniBerlin = `
create table Products(id varchar(10), label varchar(20), producer varchar(10))
create table Features(id varchar(10), label varchar(20))
create table ProductFeatures(product varchar(10), feature varchar(10))

create vertex ProductVtx(id) from table Products
create vertex FeatureVtx(id) from table Features

create edge feature with
vertices (ProductVtx, FeatureVtx)
from table ProductFeatures
where ProductFeatures.product = ProductVtx.id
and ProductFeatures.feature = FeatureVtx.id

ingest table Products products.csv
ingest table Features features.csv
ingest table ProductFeatures pf.csv
`

var miniBerlinFiles = map[string]string{
	// p1 has features f1,f2,f3; p2 shares f1,f2; p3 shares f3; p4 none.
	"products.csv": "p1,Widget,m1\np2,Gadget,m1\np3,Gizmo,m2\np4,Doohickey,m2\n",
	"features.csv": "f1,Red\nf2,Heavy\nf3,Round\nf4,Unused\n",
	"pf.csv":       "p1,f1\np1,f2\np1,f3\np2,f1\np2,f2\np3,f3\n",
}

// TestBerlinQ2Shape runs the paper's Fig. 6 query shape (products sharing
// features with a given product, counted with multiplicity) on a tiny
// dataset with a known answer.
func TestBerlinQ2Shape(t *testing.T) {
	e := newTestEngine(miniBerlinFiles)
	mustExec(t, e, miniBerlin, nil)
	params := map[string]value.Value{"Product1": value.NewString("p1")}
	res := mustExec(t, e, `
select y.id from graph
ProductVtx (id = %Product1%)
--feature--> FeatureVtx
<--feature-- def y: ProductVtx (id <> %Product1%)
into table T1

select top 10 id, count(*) as groupCount
from table T1
group by id order by groupCount desc, id asc
`, params)

	final := res[len(res)-1].Table
	if final == nil {
		t.Fatal("no result table")
	}
	if final.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2; table: %v", final.NumRows(), dumpTable(final))
	}
	// p2 shares 2 features, p3 shares 1.
	if got := final.Value(0, 0).Str(); got != "p2" {
		t.Errorf("top product = %q, want p2", got)
	}
	if got := final.Value(0, 1).Int(); got != 2 {
		t.Errorf("top count = %d, want 2", got)
	}
	if got := final.Value(1, 0).Str(); got != "p3" {
		t.Errorf("second product = %q, want p3", got)
	}
	if got := final.Value(1, 1).Int(); got != 1 {
		t.Errorf("second count = %d, want 1", got)
	}
}

// TestSubgraphCaptureAndChain checks "into subgraph" capture (Fig. 11) and
// seeding a second query from the result (Fig. 12).
func TestSubgraphCaptureAndChain(t *testing.T) {
	e := newTestEngine(miniBerlinFiles)
	mustExec(t, e, miniBerlin, nil)
	params := map[string]value.Value{"Product1": value.NewString("p1")}
	res := mustExec(t, e, `
select * from graph
ProductVtx (id = %Product1%) --feature--> FeatureVtx
into subgraph resQ1

select * from graph
resQ1.FeatureVtx ( ) <--feature-- ProductVtx (id <> %Product1%)
into subgraph resQ2
`, params)

	sub1 := res[0].Subgraph
	if sub1 == nil {
		t.Fatal("no subgraph result")
	}
	if got := sub1.NumVertices(); got != 4 { // p1 + f1,f2,f3
		t.Errorf("resQ1 vertices = %d, want 4", got)
	}
	if got := sub1.NumEdges(); got != 3 {
		t.Errorf("resQ1 edges = %d, want 3", got)
	}
	sub2 := res[1].Subgraph
	// Seeded from p1's features: products sharing any (p2 via f1/f2, p3
	// via f3) plus the seed features that connect.
	pv := e.Cat.Graph().VertexType("ProductVtx")
	pSet := sub2.Vertices[pv]
	if pSet == nil || pSet.Count() != 2 {
		n := 0
		if pSet != nil {
			n = pSet.Count()
		}
		t.Errorf("resQ2 products = %d, want 2 (p2, p3)", n)
	}
}

func dumpTable(tb interface {
	NumRows() int
	NumCols() int
	Value(uint32, int) value.Value
}) string {
	var b strings.Builder
	for r := uint32(0); int(r) < tb.NumRows(); r++ {
		for c := 0; c < tb.NumCols(); c++ {
			if c > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(tb.Value(r, c).String())
		}
		b.WriteString("\n")
	}
	return b.String()
}
