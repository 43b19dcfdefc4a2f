package exec

import (
	"fmt"
	"strings"
	"testing"

	"graql/internal/value"
)

// Table-select behaviours through the full language path (Table I).
func TestComputedExpressionItems(t *testing.T) {
	e := semaEngine(t)
	rows := tableRows(t, mustExec(t, e, `
select id, n * 10 + 1 as scaled from table TA where n >= 2 order by scaled desc`, nil))
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1] != "31" || rows[1][1] != "21" {
		t.Errorf("computed values = %v", rows)
	}
}

func TestGlobalAggregates(t *testing.T) {
	e := semaEngine(t)
	rows := tableRows(t, mustExec(t, e, `
select count(*) as n, sum(n) as total, min(n) as lo, max(n) as hi, avg(n) as mean from table TA`, nil))
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	want := []string{"4", "6", "0", "3", "1.5"}
	for i, w := range want {
		if rows[0][i] != w {
			t.Errorf("aggregate %d = %s, want %s", i, rows[0][i], w)
		}
	}
}

func TestDistinctTopOrderPipeline(t *testing.T) {
	e := semaEngine(t)
	// TE has 5 rows with src values a0 (×3), a1, a2.
	rows := tableRows(t, mustExec(t, e, `
select top 2 distinct src from table TE order by src asc`, nil))
	if len(rows) != 2 || rows[0][0] != "a0" || rows[1][0] != "a1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGraphSelectTopAndDistinct(t *testing.T) {
	e := semaEngine(t)
	// Without distinct, a0→b1 appears twice (parallel edges).
	rows := tableRows(t, mustExec(t, e, `
select y.id from graph A (id = 'a0') --e--> def y: B ( ) order by id asc`, nil))
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	rows = tableRows(t, mustExec(t, e, `
select distinct y.id from graph A (id = 'a0') --e--> def y: B ( ) order by id asc`, nil))
	if len(rows) != 2 {
		t.Fatalf("distinct rows = %v", rows)
	}
	rows = tableRows(t, mustExec(t, e, `
select top 1 y.id from graph A (id = 'a0') --e--> def y: B ( ) order by id desc`, nil))
	if len(rows) != 1 || rows[0][0] != "b1" {
		t.Fatalf("top rows = %v", rows)
	}
}

func TestDateParamsAndCoercion(t *testing.T) {
	files := map[string]string{
		"tt.csv": "x,2008-03-01\ny,2009-06-15\n",
	}
	e := newTestEngine(files)
	mustExec(t, e, `
create table TT(id varchar(4), d date)
create vertex V(id) from table TT
ingest table TT tt.csv`, nil)
	// String literal coerces against the date column.
	rows := tableRows(t, mustExec(t, e, `select id from table TT where d < '2009-01-01'`, nil))
	if len(rows) != 1 || rows[0][0] != "x" {
		t.Fatalf("coerced literal rows = %v", rows)
	}
	// The same through a path condition.
	rows = tableRows(t, mustExec(t, e, `select v.id from graph def v: V (d >= '2009-01-01')`, nil))
	if len(rows) != 1 || rows[0][0] != "y" {
		t.Fatalf("path date rows = %v", rows)
	}
}

// TestSignedZeroVertexKey: 0.0 and -0.0 compare equal, so a float-keyed
// vertex view holds one vertex for both.
func TestSignedZeroVertexKey(t *testing.T) {
	e := newTestEngine(map[string]string{"z.csv": "0.0\n-0.0\n1.5\n-0.0\n"})
	mustExec(t, e, `
create table Z(f float)
create vertex ZV(f) from table Z
ingest table Z z.csv`, nil)
	if vt := e.Cat.Graph().VertexType("ZV"); vt.Count() != 2 || vt.OneToOne {
		t.Fatalf("ZV has %d vertices (one-to-one %v), want 2 many-to-one", vt.Count(), vt.OneToOne)
	}
	rows := tableRows(t, mustExec(t, e, `select f, count(*) as n from table Z group by f order by n desc`, nil))
	if len(rows) != 2 || rows[0][1] != "3" {
		t.Fatalf("group by f = %v, want the zeros in one group of 3", rows)
	}
}

// rq1 is an RQ1-shaped select (filter, group-by with avg and count,
// order-by with top n) over a 6000-row table. It allocates per operator,
// not per row: the boxed row-at-a-time pipeline spent about seven
// allocations per input row on it; the ceiling of 150 leaves the typed
// one (about 80, whatever the row count) room to grow, not to regress.
const (
	rq1Rows = 6000
	rq1     = `select top 10 product, avg(r1) as a, count(*) as n
from table R where r2 >= %Min% group by product order by a desc, n desc, product asc`
)

func rq1Engine(t *testing.T) *Engine {
	var sb strings.Builder
	for i := 0; i < rq1Rows; i++ {
		fmt.Fprintf(&sb, "r%d,p%d,%d,%d\n", i, (i*7919)%500, i%10+1, (i*31)%10+1)
	}
	e := newTestEngine(map[string]string{"r.csv": sb.String()})
	e.Opts.Workers = 1
	mustExec(t, e, `
create table R(id varchar(10), product varchar(10), r1 integer, r2 integer)
ingest table R r.csv`, nil)
	return e
}

func assertRQ1Allocations(t *testing.T, run func() ([]Result, error)) {
	t.Helper()
	allocs := testing.AllocsPerRun(20, func() {
		res, err := run()
		if err != nil || res[0].Table.NumRows() != 10 {
			t.Fatalf("rows = %v, err = %v", res, err)
		}
	})
	if allocs > 150 {
		t.Errorf("RQ1-shaped select: %.0f allocations per run over %d rows, ceiling 150", allocs, rq1Rows)
	}
	t.Logf("%.0f allocations per run", allocs)
}

func TestPreparedSelectAllocations(t *testing.T) {
	e := rq1Engine(t)
	h, err := e.Prepare(rq1)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]value.Value{"Min": value.NewInt(4)}
	assertRQ1Allocations(t, func() ([]Result, error) { return e.ExecPrepared(h, params) })
}

// TestTextExecCachedAllocations: a warm text execution is the prepared
// path plus one script-cache lookup — no lexing, parsing, fingerprinting
// or planning — so it fits the prepared ceiling.
func TestTextExecCachedAllocations(t *testing.T) {
	e := rq1Engine(t)
	params := map[string]value.Value{"Min": value.NewInt(4)}
	mustExec(t, e, rq1, params)
	assertRQ1Allocations(t, func() ([]Result, error) { return e.ExecScript(rq1, params) })
}
