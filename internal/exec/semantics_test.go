package exec

import (
	"strings"
	"testing"
)

// tiny typed graph used across semantics tests:
//
//	nodes A0..A3 (type A), B0..B2 (type B)
//	e: A→B, f: B→A, loop: A→A
const semaSchema = `
create table TA(id varchar(8), n integer)
create table TB(id varchar(8), n integer)
create table TE(src varchar(8), dst varchar(8), w integer)
create table TF(src varchar(8), dst varchar(8))
create table TL(src varchar(8), dst varchar(8))

create vertex A(id) from table TA
create vertex B(id) from table TB

create edge e with vertices (A, B)
from table TE
where TE.src = A.id and TE.dst = B.id

create edge f with vertices (B, A)
from table TF
where TF.src = B.id and TF.dst = A.id

create edge loop with vertices (A as X, A as Y)
from table TL
where TL.src = X.id and TL.dst = Y.id

ingest table TA ta.csv
ingest table TB tb.csv
ingest table TE te.csv
ingest table TF tf.csv
ingest table TL tl.csv
`

var semaFiles = map[string]string{
	"ta.csv": "a0,0\na1,1\na2,2\na3,3\n",
	"tb.csv": "b0,0\nb1,1\nb2,2\n",
	// e: a0→b0, a0→b1, a1→b1, a2→b2, and a parallel duplicate a0→b1.
	"te.csv": "a0,b0,1\na0,b1,2\na1,b1,3\na2,b2,4\na0,b1,5\n",
	// f: b0→a1, b1→a1, b1→a2, b2→a3.
	"tf.csv": "b0,a1\nb1,a1\nb1,a2\nb2,a3\n",
	// loop: a0→a1→a2→a3 chain plus a3→a0 closing cycle.
	"tl.csv": "a0,a1\na1,a2\na2,a3\na3,a0\n",
}

func semaEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(semaFiles)
	mustExec(t, e, semaSchema, nil)
	return e
}

func tableRows(t *testing.T, res []Result) [][]string {
	t.Helper()
	tb := res[len(res)-1].Table
	if tb == nil {
		t.Fatal("expected a table result")
	}
	var out [][]string
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		row := make([]string, tb.NumCols())
		for c := 0; c < tb.NumCols(); c++ {
			row[c] = tb.Value(r, c).String()
		}
		out = append(out, row)
	}
	return out
}

func rowSet(rows [][]string) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[strings.Join(r, "|")]++
	}
	return out
}

// TestParallelEdgesMultiplicity: bindings enumerate each parallel edge
// instance (multigraph semantics, §II-A1).
func TestParallelEdgesMultiplicity(t *testing.T) {
	e := semaEngine(t)
	rows := tableRows(t, mustExec(t, e, `
select x.id, y.id as bid from graph
def x: A (id = 'a0') --e--> def y: B (id = 'b1')`, nil))
	if len(rows) != 2 {
		t.Fatalf("a0→b1 has two parallel edges; bindings = %d", len(rows))
	}
}

// TestEdgeConditionFiltersParallelEdges: edge attribute conditions select
// among parallel instances.
func TestEdgeConditionFiltersParallelEdges(t *testing.T) {
	e := semaEngine(t)
	rows := tableRows(t, mustExec(t, e, `
select g.w from graph
A (id = 'a0') --def g: e (w > 2)--> B (id = 'b1')`, nil))
	if len(rows) != 1 || rows[0][0] != "5" {
		t.Fatalf("edge condition should keep only w=5, got %v", rows)
	}
}

// TestForeachCycleVsSetLabel reproduces the paper's distinction: "a set
// label can match [an open path], while an element-wise label will only
// match a cycle".
func TestForeachCycleVsSetLabel(t *testing.T) {
	e := semaEngine(t)
	// loop edges form the cycle a0→a1→a2→a3→a0. A 4-step foreach cycle
	// query matches only full cycles (every a participates in the
	// 4-cycle).
	foreachRows := tableRows(t, mustExec(t, e, `
select x.id from graph
foreach x: A ( ) --loop--> A ( ) --loop--> A ( ) --loop--> A ( ) --loop--> x`, nil))
	if len(foreachRows) != 4 {
		t.Fatalf("foreach 4-cycle should match all 4 starts, got %v", foreachRows)
	}
	// The same query with def matches any walk of length 4 whose start
	// and end are both A vertices — the end need not be the start. On
	// this cycle each start has exactly one such walk too, but a 2-step
	// variant separates them:
	foreach2 := tableRows(t, mustExec(t, e, `
select x.id from graph
foreach x: A ( ) --loop--> A ( ) --loop--> x`, nil))
	if len(foreach2) != 0 {
		t.Fatalf("no 2-cycles exist; foreach matched %v", foreach2)
	}
	def2 := tableRows(t, mustExec(t, e, `
select x.id from graph
def x: A ( ) --loop--> A ( ) --loop--> x`, nil))
	if len(def2) != 4 {
		t.Fatalf("set label matches open 2-walks from every start, got %v", def2)
	}
}

// TestCrossStepConditions: a later step's condition referencing an
// earlier labelled step ("attributes from previous steps (if labeled)").
func TestCrossStepConditions(t *testing.T) {
	e := semaEngine(t)
	rows := tableRows(t, mustExec(t, e, `
select x.id, y.id as yid from graph
foreach x: A ( ) --loop--> def y: A (n = x.n + 1)`, nil))
	// loop edges a_i→a_{i+1 mod 4}; condition n_y = n_x+1 holds for
	// a0→a1, a1→a2, a2→a3 but not a3→a0.
	if len(rows) != 3 {
		t.Fatalf("cross-step condition rows = %v", rows)
	}
	for _, r := range rows {
		if r[0] == "a3" {
			t.Errorf("a3→a0 must fail the condition: %v", r)
		}
	}
}

// TestVariantStepTyping reproduces Fig. 9: variant steps expand to every
// consistent edge/vertex type combination.
func TestVariantStepTyping(t *testing.T) {
	e := semaEngine(t)
	res := mustExec(t, e, `
select * from graph A (id = 'a1') <--[ ]-- [ ] into subgraph around`, nil)
	sub := res[len(res)-1].Subgraph
	// In-edges of a1: f (b0→a1, b1→a1) and loop (a0→a1). So the
	// subgraph holds a1 + {b0,b1} + {a0} and 3 edges.
	if got := sub.NumEdges(); got != 3 {
		t.Fatalf("variant expansion edges = %d, want 3", got)
	}
	if got := sub.NumVertices(); got != 4 {
		t.Fatalf("variant expansion vertices = %d, want 4", got)
	}
}

// TestOrComposition: union of the component subgraphs (Eq. 9–10).
func TestOrComposition(t *testing.T) {
	e := semaEngine(t)
	res := mustExec(t, e, `
select * from graph
A (id = 'a0') --e--> B ( )
or A (id = 'a2') --e--> B ( )
into subgraph u`, nil)
	sub := res[len(res)-1].Subgraph
	// a0→{b0,b1}, a2→{b2}: vertices {a0,a2,b0,b1,b2}, edges 4 (incl. the
	// parallel a0→b1 pair).
	if sub.NumVertices() != 5 {
		t.Errorf("or vertices = %d, want 5", sub.NumVertices())
	}
	if sub.NumEdges() != 4 {
		t.Errorf("or edges = %d, want 4", sub.NumEdges())
	}
	// Table output of or-composition concatenates bindings.
	rows := tableRows(t, mustExec(t, e, `
select y.id from graph
A (id = 'a0') --e--> def y: B ( )
or A (id = 'a2') --e--> def y: B ( )`, nil))
	if len(rows) != 4 {
		t.Errorf("or bindings = %d, want 4", len(rows))
	}
}

// TestRegexBounds: exact repetition counts over the loop cycle.
func TestRegexBounds(t *testing.T) {
	e := semaEngine(t)
	run := func(q string) map[string]int {
		return rowSet(tableRows(t, mustExec(t, e, q, nil)))
	}
	// {2}: exactly two hops: a0 → a2.
	got := run(`select distinct y.id from graph A (id = 'a0') ( --loop--> [ ] ){2} def y: A ( )`)
	if len(got) != 1 || got["a2"] != 1 {
		t.Fatalf("{2} from a0 = %v, want a2", got)
	}
	// {1,3}: a1, a2, a3.
	got = run(`select distinct y.id from graph A (id = 'a0') ( --loop--> [ ] ){1,3} def y: A ( )`)
	if len(got) != 3 || got["a0"] != 0 {
		t.Fatalf("{1,3} from a0 = %v", got)
	}
	// *: zero hops includes the start itself.
	got = run(`select distinct y.id from graph A (id = 'a0') ( --loop--> [ ] )* def y: A ( )`)
	if len(got) != 4 {
		t.Fatalf("* from a0 = %v", got)
	}
	// + excludes zero... but the cycle brings a0 back after 4 hops.
	got = run(`select distinct y.id from graph A (id = 'a0') ( --loop--> [ ] )+ def y: A ( )`)
	if len(got) != 4 || got["a0"] != 1 {
		t.Fatalf("+ on a cycle must reach a0 again, got %v", got)
	}
}

// TestRegexBackwardDirection: regex fragments traverse in-edges too.
func TestRegexBackwardDirection(t *testing.T) {
	e := semaEngine(t)
	got := rowSet(tableRows(t, mustExec(t, e, `
select distinct y.id from graph A (id = 'a3') ( <--loop-- [ ] ){2} def y: A ( )`, nil)))
	if len(got) != 1 || got["a1"] != 1 {
		t.Fatalf("two backward hops from a3 = %v, want a1", got)
	}
}

// TestSeededQueryRestriction (Fig. 12): the seed restricts the start set.
func TestSeededQueryRestriction(t *testing.T) {
	e := semaEngine(t)
	res := mustExec(t, e, `
select * from graph A (n < 1) --e--> B ( ) into subgraph s1
select y.id from graph s1.B ( ) --f--> def y: A ( )`, nil)
	rows := tableRows(t, res)
	// s1.B = {b0, b1} (from a0). f from those: a1 (b0), a1, a2 (b1).
	set := rowSet(rows)
	if len(rows) != 3 || set["a1"] != 2 || set["a2"] != 1 {
		t.Fatalf("seeded rows = %v", rows)
	}
}

// TestUnboundParam: executing with a missing parameter must fail cleanly.
func TestUnboundParam(t *testing.T) {
	e := semaEngine(t)
	_, err := e.ExecScript(`select x.id from graph def x: A (id = %Missing%)`, nil)
	if err == nil || !strings.Contains(err.Error(), "%Missing%") {
		t.Errorf("unbound parameter error = %v", err)
	}
}

// TestIngestAtomicity: a bad CSV leaves both the table and the derived
// views untouched (§II-A2).
func TestIngestAtomicity(t *testing.T) {
	files := map[string]string{
		"good.csv": "a0,0\n",
		"bad.csv":  "a1,notanumber\n",
	}
	e := newTestEngine(files)
	mustExec(t, e, `
create table TA(id varchar(8), n integer)
create vertex A(id) from table TA
ingest table TA good.csv
`, nil)
	if got := e.Cat.Graph().VertexType("A").Count(); got != 1 {
		t.Fatalf("initial load: %d vertices", got)
	}
	_, err := e.ExecScript(`ingest table TA bad.csv`, nil)
	if err == nil {
		t.Fatal("bad ingest must fail")
	}
	if got := e.Cat.Table("TA").NumRows(); got != 1 {
		t.Errorf("failed ingest modified the table: %d rows", got)
	}
	if got := e.Cat.Graph().VertexType("A").Count(); got != 1 {
		t.Errorf("failed ingest modified the view: %d vertices", got)
	}
}

// TestDeterministicResults: parallel binding enumeration must produce
// identical row order across runs and worker counts (shard-ordered
// merge).
func TestDeterministicResults(t *testing.T) {
	query := `select x.id, y.id as yid from graph def x: A ( ) --e--> def y: B ( )`
	var want [][]string
	for _, workers := range []int{1, 2, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.FileOpener = memFS(semaFiles)
		e := New(opts)
		mustExec(t, e, semaSchema, nil)
		got := tableRows(t, mustExec(t, e, query, nil))
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if strings.Join(got[i], "|") != strings.Join(want[i], "|") {
				t.Fatalf("workers=%d row %d: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}
