package exec

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"graql/internal/ast"
	"graql/internal/catalog"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/sema"
	"graql/internal/storage"
	"graql/internal/table"
)

// maintSchema is one point of the view-maintenance test matrix: a schema
// and a generator of DML statements against it. Values come from small
// domains so keys collide, rows move in and out of filters, and mapping
// kinds flip.
type maintSchema struct {
	name   string
	tables string // create table statements
	views  string // create vertex / create edge statements, in id order
	gen    func(rng *rand.Rand, st *genState) string
}

// genState is what a generator remembers between statements.
type genState struct{ next, step int }

func (st *genState) id(rng *rand.Rand) int { return rng.Intn(st.next + 1) }

func nullOr(rng *rand.Rand, v string) string {
	if rng.Intn(8) == 0 {
		return "NULL"
	}
	return v
}

var maintSchemas = []maintSchema{
	{
		// write_mixed's schema: a self-edge joining a vertex attribute to
		// the same type's key.
		name:   "selfedge",
		tables: `create table Node(id integer, prev integer, val float)`,
		views: `create vertex NodeVtx(id) from table Node
create edge prev with vertices (NodeVtx as A, NodeVtx as B) where A.prev = B.id`,
		gen: func(rng *rand.Rand, st *genState) string {
			switch rng.Intn(14) {
			case 0, 1, 2, 3:
				var rows []string
				for n := 1 + rng.Intn(3); n > 0; n-- {
					id := st.next
					st.next++
					if rng.Intn(15) == 0 {
						id = st.id(rng) // a duplicate key: one-to-one may flip
					}
					rows = append(rows, fmt.Sprintf("(%d, %s, %d.5)", id, nullOr(rng, fmt.Sprint(rng.Intn(st.next+2))), rng.Intn(50)))
				}
				return "insert into Node values " + strings.Join(rows, ", ")
			case 4, 5:
				return fmt.Sprintf("update Node set val = %d.25 where id = %d", rng.Intn(50), st.id(rng))
			case 6, 7:
				return fmt.Sprintf("update Node set prev = %s where id = %d", nullOr(rng, fmt.Sprint(st.id(rng))), st.id(rng))
			case 8:
				return "update Node set val = val + 1"
			case 9:
				return fmt.Sprintf("update Node set id = id + %d where id = %d", 1+rng.Intn(3), st.id(rng))
			case 10:
				return fmt.Sprintf("delete from Node where id < %d", rng.Intn(st.next/2+1))
			case 11:
				return fmt.Sprintf("delete from Node where id >= %d and id < %d", st.id(rng), st.id(rng))
			case 12:
				return fmt.Sprintf("delete from Node where id = %d", st.id(rng))
			}
			if rng.Intn(6) == 0 {
				return "delete from Node"
			}
			return "update Node set prev = id - 1"
		},
	},
	{
		// Both mapping kinds over one table, an edge through an associated
		// attribute table, and an edge between two views of one table.
		name: "people",
		tables: `create table Person(id integer, city varchar(8))
create table Knows(src integer, dst integer, since integer)`,
		views: `create vertex P(id) from table Person
create vertex City(city) from table Person
create edge rel with vertices (P as A, P as B) from table Knows
where Knows.src = A.id and Knows.dst = B.id
create edge lives with vertices (P as X, City as Y) where X.city = Y.city`,
		gen: func(rng *rand.Rand, st *genState) string {
			city := []string{"'rome'", "'oslo'", "'lima'", "'kiev'"}[rng.Intn(4)]
			switch rng.Intn(13) {
			case 0, 1, 2:
				st.next++
				return fmt.Sprintf("insert into Person values (%d, %s)", st.next, nullOr(rng, city))
			case 3, 4, 5:
				return fmt.Sprintf("insert into Knows values (%d, %d, %d), (%d, %d, %d)",
					st.id(rng), st.id(rng), 2000+st.step, st.id(rng), st.id(rng), 2000+st.step)
			case 6:
				return fmt.Sprintf("update Person set city = %s where id = %d", city, st.id(rng))
			case 7:
				return fmt.Sprintf("update Knows set since = since + 100 where src = %d", st.id(rng))
			case 8:
				return fmt.Sprintf("update Knows set dst = %d where since = %d", st.id(rng), 2000+rng.Intn(st.step+1))
			case 9:
				return fmt.Sprintf("delete from Person where id = %d", st.id(rng))
			case 10:
				return fmt.Sprintf("delete from Person where city = %s", city) // representative rows go
			case 11:
				return fmt.Sprintf("delete from Knows where since < %d", 2000+rng.Intn(st.step+1))
			}
			return "update Knows set since = 1999"
		},
	},
	{
		// Filtered vertex types that updates move rows into and out of,
		// and an edge between two filtered views of one table.
		name:   "filtered",
		tables: `create table T(id integer, grp integer, flag integer)`,
		views: `create vertex Active(id) from table T where flag = 1
create vertex Grp(grp) from table T where flag = 1
create edge link with vertices (Active as A, Active as B) where A.grp = B.id
create edge member with vertices (Active as A, Grp as G) where A.grp = G.grp`,
		gen: func(rng *rand.Rand, st *genState) string {
			switch rng.Intn(10) {
			case 0, 1, 2:
				st.next++
				return fmt.Sprintf("insert into T values (%d, %s, %d)", st.next, nullOr(rng, fmt.Sprint(rng.Intn(st.next+1))), rng.Intn(2))
			case 3, 4:
				return fmt.Sprintf("update T set flag = 1 - flag where id = %d", st.id(rng))
			case 5:
				return fmt.Sprintf("update T set grp = %d where id = %d", st.id(rng), st.id(rng))
			case 6:
				return fmt.Sprintf("update T set flag = 1 where grp = %d", st.id(rng))
			case 7:
				return fmt.Sprintf("delete from T where grp = %d", st.id(rng))
			case 8:
				return fmt.Sprintf("delete from T where id < %d", rng.Intn(st.next/2+1))
			}
			return "update T set flag = 1 - flag"
		},
	},
	{
		// String keys, NULL keys and a two-column many-to-one key.
		name:   "strings",
		tables: `create table U(name varchar(8), boss varchar(8), lvl integer)`,
		views: `create vertex UV(name) from table U
create vertex Team(boss, lvl) from table U
create edge reports with vertices (UV as A, UV as B) where A.boss = B.name and A.lvl > 0`,
		gen: func(rng *rand.Rand, st *genState) string {
			name := func() string { return fmt.Sprintf("'u%d'", st.id(rng)) }
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				st.next++
				return fmt.Sprintf("insert into U values ('u%d', %s, %d)", st.next, nullOr(rng, name()), rng.Intn(3))
			case 4:
				return fmt.Sprintf("update U set boss = %s where name = %s", nullOr(rng, name()), name())
			case 5:
				return fmt.Sprintf("update U set lvl = %d where name = %s", rng.Intn(3), name())
			case 6:
				return fmt.Sprintf("update U set name = %s where name = %s", nullOr(rng, name()), name())
			case 7:
				return fmt.Sprintf("delete from U where lvl = %d and boss = %s", rng.Intn(3), name())
			case 8:
				return fmt.Sprintf("delete from U where name = %s", name())
			}
			return "update U set lvl = lvl + 1 where lvl < 2"
		},
	},
	{
		// The paper's Fig. 4–5 export edge: a join through four tables,
		// whose rows the edge instances do not record.
		name: "export",
		tables: `create table Producers(id integer, country varchar(2))
create table Vendors(id integer, country varchar(2))
create table Products(id integer, producer integer)
create table Offers(id integer, product integer, vendor integer)`,
		views: `create vertex ProducerCountry(country) from table Producers
create vertex VendorCountry(country) from table Vendors
create edge export with vertices (ProducerCountry, VendorCountry)
where Products.producer = Producers.id and Producers.country = ProducerCountry.country
and Offers.product = Products.id and Offers.vendor = Vendors.id
and Vendors.country = VendorCountry.country`,
		gen: func(rng *rand.Rand, st *genState) string {
			cc := []string{"'US'", "'IT'", "'FR'", "'CA'"}[rng.Intn(4)]
			// Five ids per table: most offers reach a producer and a vendor,
			// and many reach the same pair of countries.
			id := func() int { return rng.Intn(5) }
			switch rng.Intn(8) {
			case 0:
				return fmt.Sprintf("insert into Producers values (%d, %s)", id(), cc)
			case 1:
				return fmt.Sprintf("insert into Vendors values (%d, %s)", id(), cc)
			case 2:
				return fmt.Sprintf("insert into Products values (%d, %d)", id(), id())
			case 3, 4:
				return fmt.Sprintf("insert into Offers values (%d, %d, %d)", st.step, id(), id())
			case 5:
				return fmt.Sprintf("update Vendors set country = %s where id = %d", cc, id())
			case 6:
				return fmt.Sprintf("delete from Offers where product = %d", id())
			}
			return fmt.Sprintf("delete from Producers where id = %d", id())
		},
	},
}

// canonicalVertices renders the vertices of a type in VID order, each with
// every attribute it exposes.
func canonicalVertices(vt *graph.VertexType) []string {
	out := make([]string, vt.Count())
	for v := range out {
		var attrs []string
		for _, c := range vt.AttrCols() {
			attrs = append(attrs, vt.AttrValue(uint32(v), c).String())
		}
		out[v] = strings.Join(attrs, ",")
	}
	return out
}

// assertSameViews checks that got is want's equal as far as a reader can
// tell: tables, statistics, type ids, mapping kinds, vertex sets (and, with
// sameOrder, vertex numbering) and canonical edge sets.
func assertSameViews(t *testing.T, what string, want, got *Engine, sameOrder bool) {
	t.Helper()
	for _, tb := range want.Cat.Tables() {
		other := got.Cat.Table(tb.Name)
		if other == nil || other.NumRows() != tb.NumRows() {
			t.Fatalf("%s: table %s diverged", what, tb.Name)
		}
		for r := uint32(0); r < uint32(tb.NumRows()); r++ {
			if !reflect.DeepEqual(tb.Row(r), other.Row(r)) {
				t.Fatalf("%s: table %s row %d: %v vs %v", what, tb.Name, r, tb.Row(r), other.Row(r))
			}
		}
	}
	if w, g := want.Cat.Stats(), got.Cat.Stats(); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: stats diverged\nwant %+v\ngot  %+v", what, w, g)
	}
	for _, w := range want.Cat.Graph().VertexTypes() {
		g := got.Cat.Graph().VertexType(w.Name)
		if g.ID != w.ID || g.OneToOne != w.OneToOne {
			t.Fatalf("%s: vertex %s: id %d one-to-one %v, want id %d one-to-one %v", what, w.Name, g.ID, g.OneToOne, w.ID, w.OneToOne)
		}
		wv, gv := canonicalVertices(w), canonicalVertices(g)
		if !sameOrder {
			sort.Strings(wv)
			sort.Strings(gv)
		}
		if !reflect.DeepEqual(wv, gv) {
			t.Fatalf("%s: vertex %s diverged\nwant %v\ngot  %v", what, w.Name, wv, gv)
		}
	}
	for _, w := range want.Cat.Graph().EdgeTypes() {
		g := got.Cat.Graph().EdgeType(w.Name)
		if g.ID != w.ID {
			t.Fatalf("%s: edge %s has id %d, want %d", what, w.Name, g.ID, w.ID)
		}
		if we, ge := canonicalEdges(w), canonicalEdges(g); !reflect.DeepEqual(we, ge) {
			t.Fatalf("%s: edge %s diverged\nwant %v\ngot  %v", what, w.Name, we, ge)
		}
	}
}

// assertValidViews validates every index of the engine's view graph.
func assertValidViews(t *testing.T, what string, e *Engine) {
	t.Helper()
	for _, vt := range e.Cat.Graph().VertexTypes() {
		if err := vt.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, et := range e.Cat.Graph().EdgeTypes() {
		if err := et.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// assertMatchesReference checks every view of e against the naive reading
// of Eq. 1–2 (reference_test.go) over e's tables. Each declaration is
// analysed afresh, apart from e: against a catalog of its own holding the
// tables and the vertex types declared before it.
func assertMatchesReference(t *testing.T, what string, e *Engine) {
	t.Helper()
	shadow := catalog.New()
	for _, tb := range e.Cat.Tables() {
		shadow.Publish(catalog.Change{Table: tb})
	}
	an := &sema.Analyzer{Cat: shadow}
	views := map[string]*refVertexView{}
	for _, decl := range e.Cat.VertexDecls() {
		s, err := an.Analyze(decl)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		vt := e.Cat.Graph().VertexType(decl.Name)
		ref := referenceVertex(t, s.(*sema.CreateVertex))
		want := make([]string, len(ref.rows))
		for v := range want {
			want[v] = refJoin(ref.values(uint32(v), true))
		}
		if got := canonicalVertices(vt); ref.oneToOne != vt.OneToOne || !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: vertex %s departs from Eq. 1\nwant one-to-one %v %v\ngot  one-to-one %v %v", what, decl.Name, ref.oneToOne, want, vt.OneToOne, got)
		}
		views[strings.ToLower(decl.Name)] = ref
		if err := shadow.Graph().AddVertexType(vt); err != nil {
			t.Fatal(err)
		}
	}
	for _, decl := range e.Cat.EdgeDecls() {
		s, err := an.Analyze(decl)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, got := referenceEdges(t, s.(*sema.CreateEdge), views), canonicalEdges(e.Cat.Graph().EdgeType(decl.Name))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: edge %s departs from Eq. 2\nwant %v\ngot  %v", what, decl.Name, want, got)
		}
	}
}

// assertOnlyReadersMaintained checks the view graph after a write to
// table written against the graph before it: it is the same graph exactly
// when no declaration reads the table (or the write was refused), and
// every type the write did not maintain — a vertex type over another
// table, an edge type that reads neither the table nor a maintained
// vertex type — is carried over pointer for pointer.
func assertOnlyReadersMaintained(t *testing.T, what string, e *Engine, before *graph.Graph, written string, refused bool) {
	t.Helper()
	vertices, edges := map[string]bool{}, map[string]bool{}
	if !refused {
		for _, d := range e.Cat.VertexDecls() {
			if strings.EqualFold(d.From, written) {
				vertices[strings.ToLower(d.Name)] = true
			}
		}
		for _, d := range e.Cat.EdgeDecls() {
			if sema.EdgeReadsTable(d, written) || vertices[strings.ToLower(d.SrcType)] || vertices[strings.ToLower(d.DstType)] {
				edges[strings.ToLower(d.Name)] = true
			}
		}
	}
	after := e.Cat.Graph()
	if read := len(vertices)+len(edges) > 0; (after != before) != read {
		t.Fatalf("%s: view graph replaced: %v; declarations read %s: %v", what, after != before, written, read)
	}
	for _, vt := range before.VertexTypes() {
		if !vertices[strings.ToLower(vt.Name)] && after.VertexType(vt.Name) != vt {
			t.Fatalf("%s: vertex %s was not maintained, yet replaced", what, vt.Name)
		}
	}
	for _, et := range before.EdgeTypes() {
		if !edges[strings.ToLower(et.Name)] && after.EdgeType(et.Name) != et {
			t.Fatalf("%s: edge %s was not maintained, yet replaced", what, et.Name)
		}
	}
}

// asideGen writes the table no declaration reads, which checkViewMaintenance
// adds to every schema.
func asideGen(rng *rand.Rand, step int) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("insert into Aside values (%d, 'n')", step)
	case 1:
		return fmt.Sprintf("update Aside set note = 'u' where id < %d", rng.Intn(step+1))
	}
	return fmt.Sprintf("delete from Aside where id = %d", rng.Intn(step+1))
}

// checkViewMaintenance applies a generated statement sequence to a durable
// engine, checking that each statement's plain explain names the
// maintenance actions its write runs, and checks after every statement
// that the maintained views equal
// those of an engine that builds them from scratch over the same tables,
// those of an engine recovered from the store, and the reference. Between
// the schema's statements it also writes a table no declaration reads
// (Aside), from a random stream of its own so the schema's sequence is the
// same as without it. After every write, only the types that read the
// written table are new.
func checkViewMaintenance(t *testing.T, sc maintSchema, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	aside := rand.New(rand.NewSource(^seed))
	dir := filepath.Join(t.TempDir(), "store")
	open := func() (*Engine, *storage.Store) {
		st, err := storage.Open(dir, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(nil)
		if err := e.AttachStore(st); err != nil {
			t.Fatalf("recovery: %v", err)
		}
		return e, st
	}
	inc, store := open()
	defer store.Close()
	mustExec(t, inc, sc.tables+"\n"+sc.views, nil)
	schemaTables := len(inc.Cat.Tables())
	mustExec(t, inc, `create table Aside(id integer, note varchar(8))`, nil)
	st := &genState{}
	var applied []string
	// write applies one statement, or re-ingests a table when reingest is
	// set, and returns the name of the table it wrote.
	write := func(stmt string, reingest *table.Table) string {
		applied = append(applied, stmt)
		what := fmt.Sprintf("%s seed %d after %q", sc.name, seed, applied)
		epoch, before := inc.Cat.Epoch(), inc.Cat.Graph()
		var written string
		var err error
		if reingest != nil {
			written = reingest.Name
			var csv strings.Builder
			if err := table.WriteCSV(table.TopN(reingest, max(reingest.NumRows()-1, 0)), &csv); err != nil {
				t.Fatal(err)
			}
			err = inc.IngestReader(reingest.Name, strings.NewReader(csv.String()))
		} else {
			script, perr := parser.Parse(stmt)
			if perr != nil {
				t.Fatal(perr)
			}
			switch s := script.Stmts[0].(type) {
			case *ast.Insert:
				written = s.Table
			case *ast.Update:
				written = s.Table
			case *ast.Delete:
				written = s.Table
			}
			// Plain explain names the maintenance actions the write runs.
			planned := explainedActions(t, inc, stmt)
			var done []string
			var rows int64
			if done, rows, err = tracedActions(inc, stmt); err == nil && !reflect.DeepEqual(planned, done) {
				t.Fatalf("%s: explain names %v, the write ran %v", what, planned, done)
			}
			if err == nil && rows == 0 {
				// A write that matched no row publishes nothing.
				if inc.Cat.Epoch() != epoch || inc.Cat.Graph() != before {
					t.Fatalf("%s: matched no row, yet published", what)
				}
				return written
			}
		}
		if err != nil {
			// A write that leaves a view undefinable (a type flipped to
			// many-to-one under an edge that reads a non-key attribute)
			// is refused whole.
			if inc.Cat.Epoch() != epoch {
				t.Fatalf("%s: failed (%v) yet moved the epoch", what, err)
			}
			applied[len(applied)-1] += " (refused)"
		}
		assertOnlyReadersMaintained(t, what, inc, before, written, err != nil)
		return what
	}
	for st.step = 0; st.step < steps; st.step++ {
		if aside.Intn(3) == 0 {
			if aside.Intn(4) == 0 {
				write("re-ingest Aside", inc.Cat.Table("Aside"))
			} else {
				write(asideGen(aside, st.step), nil)
			}
		}
		stmt := sc.gen(rng, st)
		var reingest *table.Table
		if rng.Intn(12) == 0 {
			// Replace a whole table (by its own rows, last one dropped):
			// the views it feeds are rebuilt, under their old type ids.
			reingest = inc.Cat.Tables()[rng.Intn(schemaTables)]
			stmt = "re-ingest " + reingest.Name
		}
		what := write(stmt, reingest)
		if rng.Intn(10) == 0 {
			if err := inc.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", what, err)
			}
		}
		assertValidViews(t, what, inc)

		ref := newTestEngine(nil)
		for _, tb := range inc.Cat.Tables() {
			ref.Cat.Publish(catalog.Change{Table: tb.Clone()})
		}
		mustExec(t, ref, sc.views, nil)
		assertSameViews(t, what+": maintained vs from scratch", ref, inc, true)
		assertMatchesReference(t, what, inc)

		rec, recStore := open()
		assertSameViews(t, what+": maintained vs recovered", inc, rec, false)
		recStore.Close()
	}
}

func TestIncrementalEquivalence(t *testing.T) {
	for _, sc := range maintSchemas {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				checkViewMaintenance(t, sc, seed, 30)
			}
		})
	}
}

func FuzzViewMaintenance(f *testing.F) {
	for i := range maintSchemas {
		f.Add(int64(7), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, schema uint8) {
		checkViewMaintenance(t, maintSchemas[int(schema)%len(maintSchemas)], seed, 12)
	})
}

// TestEdgeBuildOrderAndDedup pins what a full build owes besides the edge
// set: edge ids follow tuple order — source vertex by source vertex, each
// one's matches by ascending row of the joined source — even where the
// join scans a table that is not sorted by the join column; a declaration
// with an associated table keeps one edge per associated row; and a join
// through further tables, whose rows an edge does not record, yields each
// (source, target) pair once.
func TestEdgeBuildOrderAndDedup(t *testing.T) {
	const people = `create table Person(id integer)
create table Knows(src integer, dst integer, since integer)
insert into Person values (0), (1), (2)
insert into Knows values %s
create vertex P(id) from table Person
create edge rel with vertices (P as A, P as B) from table Knows where Knows.src = A.id and Knows.dst = B.id`
	for _, c := range []struct {
		name, script, edge string
		want               []string
	}{
		{"unsorted associated table", fmt.Sprintf(people, "(2, 0, 10), (0, 1, 11), (1, 2, 12), (0, 2, 13), (2, 1, 14)"), "rel",
			[]string{"0->1|[0 1 11]", "0->2|[0 2 13]", "1->2|[1 2 12]", "2->0|[2 0 10]", "2->1|[2 1 14]"}},
		{"parallel edges", fmt.Sprintf(people, "(1, 0, 20), (0, 1, 20), (0, 1, 20), (0, 1, 21)"), "rel",
			[]string{"0->1|[0 1 20]", "0->1|[0 1 20]", "0->1|[0 1 21]", "1->0|[1 0 20]"}},
		{"six sources", maintSchemas[4].tables + `
insert into Producers values (1, 'US'), (2, 'IT'), (3, 'US')
insert into Vendors values (1, 'CA'), (2, 'CA')
insert into Products values (1, 1), (2, 3), (3, 2)
insert into Offers values (1, 1, 1), (2, 2, 2), (3, 1, 2), (4, 3, 1)
` + maintSchemas[4].views, "export", []string{"US->CA", "IT->CA"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(nil)
			mustExec(t, e, c.script, nil)
			et := e.Cat.Graph().EdgeType(c.edge)
			var got []string
			for id := range et.IDs() {
				src, dst := et.EdgeAt(id)
				s := et.Src.KeyString(src) + "->" + et.Dst.KeyString(dst)
				if attrs, rows := et.AttrRows(); attrs != nil {
					s += fmt.Sprintf("|%v", attrs.Row(rows[id]))
				}
				got = append(got, s)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("edges in id order = %v, want %v", got, c.want)
			}
			assertValidViews(t, c.name, e)
			assertMatchesReference(t, c.name, e)
		})
	}
}

// explainedActions returns the view-maintenance actions the plain explain
// of the DML statement stmt names.
func explainedActions(t *testing.T, e *Engine, stmt string) []string {
	t.Helper()
	var planned []string
	plan := mustExec(t, e, "explain "+stmt, nil)[0].Table
	for r := uint32(0); r < uint32(plan.NumRows()); r++ {
		if plan.Value(r, 1).Str() == "maintain" {
			planned = append(planned, plan.Value(r, 2).Str())
		}
	}
	return planned
}

// tracedActions executes stmt under a trace and returns the
// view-maintenance actions its write's spans name, and the rows its verb
// span counts.
func tracedActions(e *Engine, stmt string) (done []string, rows int64, err error) {
	tr := obs.NewTrace(obs.TraceID{})
	if _, err := e.WithTrace(tr, nil).ExecScript(stmt, nil); err != nil {
		return nil, 0, err
	}
	for _, root := range tr.Tree().Roots {
		for i, k := range root.Children {
			switch k.Action {
			case carryVertex, patchVertex, carryEdge, patchEdge, rebuildEdge:
				done = append(done, k.Action+" "+k.Detail)
			}
			if i == 0 {
				rows = k.Rows
			}
		}
	}
	return done, rows, nil
}

// maintActions runs stmt under explain (plain, then analyze — which
// executes it) and returns the view-maintenance action of each.
func maintActions(t *testing.T, e *Engine, stmt string) (planned, done []string) {
	t.Helper()
	planned = explainedActions(t, e, stmt)
	ran := mustExec(t, e, "explain analyze "+stmt, nil)[0].Table
	for r := uint32(0); r < uint32(ran.NumRows()); r++ {
		switch a := ran.Value(r, 1).Str(); a {
		case carryVertex, patchVertex, carryEdge, patchEdge, rebuildEdge:
			done = append(done, a+" "+ran.Value(r, 2).Str())
		}
	}
	return planned, done
}

// TestWriteMixedNeverRebuilds: on the benchmark's schema every verb is
// maintained by delta, and the cheapest action that is sound is the one
// taken.
func TestWriteMixedNeverRebuilds(t *testing.T) {
	e := newSelfEdgeEngine(t, 200)
	for _, c := range []struct{ stmt, vertex, edge string }{
		{"insert into Node values (200, 199, 1.5), (201, 200, 2.5), (202, 7, 3.5)", patchVertex, patchEdge},
		{"update Node set val = 9.5 where id = 100", carryVertex, carryEdge},
		{"update Node set prev = 3 where id = 100", carryVertex, patchEdge},
		{"update Node set id = 500 where id = 150", patchVertex, patchEdge},
		{"delete from Node where id < 20", patchVertex, patchEdge},
		{"delete from Node", patchVertex, patchEdge},
	} {
		planned, done := maintActions(t, e, c.stmt)
		want := []string{c.vertex + " NodeVtx", c.edge + " prev"}
		if !reflect.DeepEqual(planned, want) || !reflect.DeepEqual(done, want) {
			t.Errorf("%s:\nexplain         %v\nexplain analyze %v\nwant            %v", c.stmt, planned, done, want)
		}
		assertValidViews(t, c.stmt, e)
	}
}

// TestConcurrentGraphReadersNeverTorn streams updates, inserts and deletes
// while readers traverse the edge view: maintained views share structure
// with the versions readers still hold, so under -race this proves nothing
// shared is written after publication. Every row's val equals its
// predecessor's plus one, and every update bumps all of them, so a reader
// that mixed two versions would see a pair out of step.
func TestConcurrentGraphReadersNeverTorn(t *testing.T) {
	e := newTestEngine(nil)
	mustExec(t, e, strings.Replace(selfEdgeDDL, "ingest table Node node.csv", "", 1), nil)
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf("insert into Node values (%d, %d, %d.5)", i, i-1, i), nil)
	}
	const writes = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		lo, hi := 0, 40
		for i := 0; i < writes; i++ {
			var stmt string
			switch i % 3 {
			case 0:
				stmt = "update Node set val = val + 1"
			case 1:
				// The newest row continues the chain at the current offset.
				stmt = fmt.Sprintf("insert into Node values (%d, %d, %d.5)", hi, hi-1, hi+i/3+1)
				hi++
			case 2:
				lo++
				stmt = fmt.Sprintf("delete from Node where id < %d", lo)
			}
			if _, err := e.ExecScript(stmt, nil); err != nil {
				errc <- fmt.Errorf("%s: %w", stmt, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.ExecScript(`select a.val as av, b.val as bv from graph def a: NodeVtx --prev--> def b: NodeVtx`, nil)
				if err != nil {
					errc <- err
					return
				}
				tb := res[0].Table
				if tb.NumRows() == 0 {
					errc <- fmt.Errorf("reader saw no edges")
					return
				}
				for row := uint32(0); row < uint32(tb.NumRows()); row++ {
					if a, b := tb.Value(row, 0).Float(), tb.Value(row, 1).Float(); a != b+1 {
						errc <- fmt.Errorf("torn read: edge joins val %v to val %v", a, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	assertValidViews(t, "after the stream", e)
}

// TestIngestIsAtomic: an ingest that fails after parsing — at the view
// build or at the WAL — leaves tables, graph and epoch exactly as they
// were.
func TestIngestIsAtomic(t *testing.T) {
	files := map[string]string{
		"node.csv": "0,0,0.5\n1,0,1.5\n2,1,2.5\n",
		"more.csv": "5,0,0.5\n6,5,1.5\n",
		"dups.csv": "7,0,0.5\n7,7,1.5\n", // NodeVtx turns many-to-one: edge prev cannot read A.prev
	}
	st, err := storage.Open(filepath.Join(t.TempDir(), "store"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(files)
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, selfEdgeDDL, nil)
	snapshot := func() (uint64, any, *graph.Graph, []string) {
		g := e.Cat.Graph()
		return e.Cat.Epoch(), e.Cat.Table("Node"), g, canonicalEdges(g.EdgeType("prev"))
	}
	epoch, tbl, g, edges := snapshot()
	unchanged := func(what string) {
		t.Helper()
		if e2, t2, g2, ed2 := snapshot(); e2 != epoch || t2 != tbl || g2 != g || !reflect.DeepEqual(ed2, edges) {
			t.Errorf("%s: catalog changed: epoch %d -> %d, table swapped %v, graph swapped %v", what, epoch, e2, t2 != tbl, g2 != g)
		}
	}

	if _, err := e.ExecScript("ingest table Node dups.csv", nil); err == nil {
		t.Fatal("ingest that breaks a view: want an error")
	}
	unchanged("failed view build")

	st.Close() // every WAL append fails from here on
	if _, err := e.ExecScript("ingest table Node more.csv", nil); err == nil {
		t.Fatal("ingest with a dead WAL: want an error")
	}
	unchanged("failed WAL append (statement)")
	if err := e.IngestReader("Node", strings.NewReader(files["more.csv"])); err == nil {
		t.Fatal("IngestReader with a dead WAL: want an error")
	}
	unchanged("failed WAL append (IngestReader)")
	if _, err := e.ExecScript("insert into Node values (9, 0, 1.5)", nil); err == nil {
		t.Fatal("insert with a dead WAL: want an error")
	}
	unchanged("failed WAL append (insert)")

	// Statements compiled before the failures still run on intact views.
	rows := tableRows(t, mustExec(t, e, `select b.id from graph NodeVtx (id = 2) --prev--> def b: NodeVtx`, nil))
	if !reflect.DeepEqual(rows, [][]string{{"1"}}) {
		t.Errorf("read after failed ingests = %v, want [[1]]", rows)
	}
}
