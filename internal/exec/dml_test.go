package exec

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"graql/internal/graph"
	"graql/internal/value"
)

func TestInsertBasic(t *testing.T) {
	e := newTestEngine(nil)
	res := mustExec(t, e, `
create table People(id integer, name varchar(20), age integer)
insert into People(id, name, age) values (1, 'ada', 36), (2, 'bob', 41)
insert into People(id, name) values (3, 'eve')
insert into People values (4, 'dan', 29)
select id, name, age from table People order by id asc`, nil)

	if msg := res[1].Message; msg != "inserted 2 row(s) into People" {
		t.Errorf("insert message = %q", msg)
	}
	rows := tableRows(t, res)
	want := [][]string{
		{"1", "ada", "36"},
		{"2", "bob", "41"},
		{"3", "eve", "NULL"}, // unlisted column defaults to NULL
		{"4", "dan", "29"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
}

func TestInsertWithParams(t *testing.T) {
	e := newTestEngine(nil)
	mustExec(t, e, `create table KV(k varchar(10), v integer)`, nil)
	params := map[string]value.Value{
		"key": value.NewString("a"),
		"val": value.NewInt(7),
	}
	res := mustExec(t, e, `insert into KV values (%key%, %val% * 2)`, params)
	if res[0].Message != "inserted 1 row(s) into KV" {
		t.Errorf("message = %q", res[0].Message)
	}
	rows := tableRows(t, mustExec(t, e, `select k, v from table KV`, nil))
	if !reflect.DeepEqual(rows, [][]string{{"a", "14"}}) {
		t.Errorf("rows = %v", rows)
	}
}

func TestUpdateReadsPreUpdateValues(t *testing.T) {
	e := newTestEngine(nil)
	res := mustExec(t, e, `
create table P(a integer, b integer)
insert into P values (1, 10)
update P set a = b, b = a where a = 1
select a, b from table P`, nil)
	if msg := res[2].Message; msg != "updated 1 row(s) in P" {
		t.Errorf("update message = %q", msg)
	}
	// Set expressions evaluate against the old row: a=b, b=a swaps.
	rows := tableRows(t, res)
	if !reflect.DeepEqual(rows, [][]string{{"10", "1"}}) {
		t.Errorf("rows = %v, want swap", rows)
	}
}

func TestDeleteWhere(t *testing.T) {
	e := newTestEngine(nil)
	res := mustExec(t, e, `
create table Q(id integer)
insert into Q values (1), (2), (3), (4)
delete from Q where id >= 3
select id from table Q order by id asc`, nil)
	if msg := res[2].Message; msg != "deleted 2 row(s) from Q" {
		t.Errorf("delete message = %q", msg)
	}
	rows := tableRows(t, res)
	if !reflect.DeepEqual(rows, [][]string{{"1"}, {"2"}}) {
		t.Errorf("rows = %v", rows)
	}
}

func TestDMLTypeCoercion(t *testing.T) {
	e := newTestEngine(nil)
	rows := tableRows(t, mustExec(t, e, `
create table C(f float, d date)
insert into C values (3, '2024-05-01')
select f, d from table C`, nil))
	if rows[0][0] != "3" && rows[0][0] != "3.000000" {
		t.Logf("float rendering: %q", rows[0][0])
	}
	if rows[0][1] != "2024-05-01" {
		t.Errorf("date = %q, want 2024-05-01", rows[0][1])
	}
}

func TestDMLErrors(t *testing.T) {
	e := newTestEngine(nil)
	mustExec(t, e, `create table T(id integer, name varchar(5))`, nil)
	for _, bad := range []string{
		`insert into Nope values (1)`,          // unknown table
		`insert into T(id, wat) values (1, 2)`, // unknown column
		`insert into T(id, id) values (1, 2)`,  // duplicate column
		`insert into T values (1)`,             // arity mismatch
		`insert into T(id) values (name)`,      // column ref in values
		`insert into T(id) values ('x')`,       // type mismatch
		`update T set wat = 1`,                 // unknown set column
		`update T set name = 3 where id = 1`,   // type-mismatched set
		`delete from Nope where 1 = 1`,         // unknown table
	} {
		if _, err := e.ExecScript(bad, nil); err == nil {
			t.Errorf("%s: expected error", bad)
		}
	}
}

// dmlViewScript builds a small graph whose views exercise both vertex
// kinds (one-to-one and many-to-one) plus an attribute-bearing edge.
const dmlViewScript = `
create table Person(id integer, city varchar(8))
create table Knows(src integer, dst integer, since integer)
create vertex P(id) from table Person
create vertex City(city) from table Person
create edge rel with vertices (P as A, P as B) from table Knows
where Knows.src = A.id and Knows.dst = B.id
`

func TestInsertMaintainsViews(t *testing.T) {
	e := newTestEngine(nil)
	mustExec(t, e, dmlViewScript+`
insert into Person values (1, 'rome'), (2, 'oslo')
insert into Knows values (1, 2, 2020)
`, nil)
	g := e.Cat.Graph()
	if n := g.VertexType("P").Count(); n != 2 {
		t.Errorf("P count = %d, want 2", n)
	}
	if n := g.VertexType("City").Count(); n != 2 {
		t.Errorf("City count = %d, want 2", n)
	}
	if n := g.EdgeType("rel").Count(); n != 1 {
		t.Errorf("knows count = %d, want 1", n)
	}

	// Append more people and edges: the vertex types are patched, the edge
	// type joins only the delta rows.
	mustExec(t, e, `
insert into Person values (3, 'rome')
insert into Knows values (2, 3, 2021), (3, 1, 2022)
`, nil)
	g = e.Cat.Graph()
	if n := g.VertexType("P").Count(); n != 3 {
		t.Errorf("P count = %d, want 3", n)
	}
	if n := g.VertexType("City").Count(); n != 2 { // rome dedups
		t.Errorf("City count = %d, want 2", n)
	}
	et := g.EdgeType("rel")
	if n := et.Count(); n != 3 {
		t.Errorf("knows count = %d, want 3", n)
	}
	if err := et.Validate(); err != nil {
		t.Errorf("knows invalid after extension: %v", err)
	}

	// Deleting an endpoint removes its vertex and the edges on it.
	mustExec(t, e, `delete from Person where id = 3`, nil)
	g = e.Cat.Graph()
	if n := g.VertexType("P").Count(); n != 2 {
		t.Errorf("P count after delete = %d, want 2", n)
	}
	if n := g.EdgeType("rel").Count(); n != 1 {
		t.Errorf("knows count after delete = %d, want 1", n)
	}
}

// canonicalEdges returns the edge set of an edge type as sorted
// (src-key, dst-key, attrs) triples, independent of build order.
func canonicalEdges(et *graph.EdgeType) []string {
	var out []string
	for e := range et.IDs() {
		src, dst := et.EdgeAt(e)
		s := fmt.Sprintf("%v->%v", et.Src.KeyString(src), et.Dst.KeyString(dst))
		if attrs, rows := et.AttrRows(); attrs != nil {
			s += fmt.Sprintf("|%v", attrs.Row(rows[e]))
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestConcurrentReadersNeverTorn is the copy-on-write property test:
// while a writer streams updates and inserts, concurrent readers must
// always observe a consistent pre- or post-write snapshot, never a mix of
// old and new rows. Every update adds 1 to every balance, so any torn
// read breaks sum % count == 0 (balances start equal).
func TestConcurrentReadersNeverTorn(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = workers
			e := New(opts)
			mustExec(t, e, `create table Acct(id integer, bal integer)`, nil)
			for i := 0; i < 8; i++ {
				mustExec(t, e, fmt.Sprintf("insert into Acct values (%d, 100)", i), nil)
			}

			const writes = 40
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errc := make(chan error, 16)

			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for i := 0; i < writes; i++ {
					if _, err := e.ExecScript(`update Acct set bal = bal + 1`, nil); err != nil {
						errc <- err
						return
					}
					if i%10 == 0 {
						// Grow the table too: inserts keep the invariant
						// because the current balance is unknown to readers
						// only as a whole-snapshot property.
						if _, err := e.ExecScript(
							fmt.Sprintf("insert into Acct values (%d, 100 + %d)", 100+i, i+1), nil); err != nil {
							errc <- err
							return
						}
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
						res, err := e.ExecScript(`select sum(bal) as s, count(*) as c from table Acct`, nil)
						if err != nil {
							errc <- err
							return
						}
						tb := res[0].Table
						sum := tb.Value(0, 0).Int()
						cnt := tb.Value(0, 1).Int()
						if cnt == 0 || (sum-100*cnt)%cnt != 0 {
							errc <- fmt.Errorf("torn read: sum=%d count=%d", sum, cnt)
							return
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
		})
	}
}

func TestDMLExplain(t *testing.T) {
	e := newTestEngine(nil)
	mustExec(t, e, dmlViewScript+`insert into Person values (1, 'rome')`, nil)

	// Plain explain describes without mutating.
	res := mustExec(t, e, `explain insert into Person values (9, 'x')`, nil)
	if res[0].Table == nil {
		t.Fatal("explain insert: no plan table")
	}
	if n := e.Cat.Table("Person").NumRows(); n != 1 {
		t.Errorf("explain mutated: %d rows", n)
	}
	actions := map[string]bool{}
	for r := uint32(0); r < uint32(res[0].Table.NumRows()); r++ {
		actions[res[0].Table.Value(r, 1).Str()] = true
	}
	for _, want := range []string{"insert", "maintain", "commit"} {
		if !actions[want] {
			t.Errorf("explain insert: missing %q step in %v", want, actions)
		}
	}

	// Explain analyze executes, commits, and reports rows + timings.
	res = mustExec(t, e, `explain analyze insert into Person values (2, 'oslo')`, nil)
	tb := res[0].Table
	if tb == nil {
		t.Fatal("explain analyze insert: no plan table")
	}
	if tb.NumCols() != 5 {
		t.Fatalf("analyze plan has %d cols, want 5", tb.NumCols())
	}
	if n := e.Cat.Table("Person").NumRows(); n != 2 {
		t.Errorf("explain analyze did not commit: %d rows", n)
	}

	res = mustExec(t, e, `explain update Person set city = 'x' where id = 1`, nil)
	if res[0].Table == nil || res[0].Table.NumRows() == 0 {
		t.Error("explain update: empty plan")
	}
	res = mustExec(t, e, `explain delete from Person where id = 1`, nil)
	if res[0].Table == nil || res[0].Table.NumRows() == 0 {
		t.Error("explain delete: empty plan")
	}
	if n := e.Cat.Table("Person").NumRows(); n != 2 {
		t.Errorf("explain update/delete mutated: %d rows", n)
	}

	// Plain explain and explain analyze name the same maintenance action
	// for every view, whatever the verb. (City is many-to-one from here
	// on: only a flip of the mapping kind, which depends on the rows
	// written, can turn an announced patch into a rebuild.)
	mustExec(t, e, `insert into Person values (4, 'rome')`, nil)
	for _, c := range []struct {
		stmt string
		want []string
	}{
		{`insert into Person values (3, 'oslo')`, []string{"patch-vertex P", "patch-vertex City", "patch-edge rel"}},
		{`insert into Knows values (1, 2, 2020), (2, 3, 2021)`, []string{"patch-edge rel"}},
		{`update Person set city = 'x' where id = 1`, []string{"carry-vertex P", "patch-vertex City", "carry-edge rel"}},
		{`update Knows set since = 1999 where src = 1`, []string{"carry-edge rel"}},
		{`update Knows set dst = 1 where src = 1`, []string{"patch-edge rel"}},
		{`delete from Knows where src = 2`, []string{"patch-edge rel"}},
		{`delete from Person where id = 1`, []string{"patch-vertex P", "patch-vertex City", "patch-edge rel"}},
	} {
		planned, done := maintActions(t, e, c.stmt)
		if !reflect.DeepEqual(planned, c.want) || !reflect.DeepEqual(done, c.want) {
			t.Errorf("%s:\nexplain         %v\nexplain analyze %v\nwant            %v", c.stmt, planned, done, c.want)
		}
	}
	assertValidViews(t, "after the explained statements", e)
}

func TestDMLCheckOnly(t *testing.T) {
	err := CheckScript(`
create table T(id integer)
insert into T values (1)
update T set id = 2 where id = 1
delete from T where id = 2
`)
	if err != nil {
		t.Fatalf("CheckScript: %v", err)
	}
	if err := CheckScript(`insert into Missing values (1)`); err == nil {
		t.Error("CheckScript accepted insert into unknown table")
	}
}
