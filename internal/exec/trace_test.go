package exec

import (
	"strings"
	"testing"

	"graql/internal/cluster"
	"graql/internal/obs"
	"graql/internal/value"
)

// chainEngine builds a small road chain c0→c1→c2→c3→c4 for the tracing
// and cluster-path tests.
func chainEngine(t *testing.T, parts int, block bool) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 2
	strategy := cluster.Hash
	if block {
		strategy = cluster.Block
	}
	opts.Dist = cluster.Simulated(parts, strategy)
	e := New(opts)
	mustExec(t, e, `
create table Cities(id varchar(8), country varchar(2))
create table Roads(src varchar(8), dst varchar(8))
create vertex City(id) from table Cities
create edge road with vertices (City as A, City as B)
from table Roads
where Roads.src = A.id and Roads.dst = B.id
`, nil)
	if err := e.IngestReader("Cities", strings.NewReader("c0,US\nc1,US\nc2,US\nc3,CA\nc4,CA\n")); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestReader("Roads", strings.NewReader("c0,c1\nc1,c2\nc2,c3\nc3,c4\n")); err != nil {
		t.Fatal(err)
	}
	return e
}

const chainQuery = `
select * from graph
def a: City ( ) --road--> def b: City ( ) --road--> def c: City ( )
into subgraph SG`

// actionsOf flattens a trace tree into its span actions, depth first.
func actionsOf(nodes []*obs.SpanNode) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Action)
		out = append(out, actionsOf(n.Children)...)
	}
	return out
}

func countAction(nodes []*obs.SpanNode, action string) int {
	n := 0
	for _, a := range actionsOf(nodes) {
		if a == action {
			n++
		}
	}
	return n
}

// TestTracedExecutionSpanTree runs one statement on a traced fork and
// checks every operator span lands under the statement span.
func TestTracedExecutionSpanTree(t *testing.T) {
	e := chainEngine(t, 0, false)
	tr := obs.NewTrace(obs.TraceID{})
	res, err := e.WithTrace(tr, nil).ExecScript(chainQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Subgraph == nil || res[0].Subgraph.NumVertices() == 0 {
		t.Fatalf("unexpected result: %+v", res[0])
	}

	tree := tr.Tree()
	if tree.TraceID != tr.ID().String() {
		t.Fatalf("tree trace id %s != %s", tree.TraceID, tr.ID())
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("want a single statement root, got %d roots", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Action != "statement" || root.Attrs["kind"] == "" {
		t.Fatalf("root span: %+v", root)
	}
	if root.Rows != int64(res[0].Subgraph.NumVertices()) {
		t.Fatalf("statement rows %d != subgraph vertices %d", root.Rows, res[0].Subgraph.NumVertices())
	}
	if len(root.Children) == 0 {
		t.Fatal("statement span has no operator children")
	}
	acts := actionsOf(root.Children)
	joined := strings.Join(acts, " ")
	for _, want := range []string{"sweep", "capture-expand", "capture-cull"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace is missing a %q span (got %v)", want, acts)
		}
	}
	// The untraced engine must not share the fork's trace.
	tr2 := obs.NewTrace(obs.TraceID{})
	if _, err := e.ExecScript(`select a.id from graph def a: City (id = 'c0')`, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr2.Tree().SpanCount; got != 0 {
		t.Fatalf("untraced execution produced %d spans", got)
	}
}

// TestExplainAnalyzeStillFlat guards the pre-existing EXPLAIN ANALYZE
// contract: its private trace keeps one top-level span per operator (no
// statement root, no sweep spans).
func TestExplainAnalyzeStillFlat(t *testing.T) {
	e := chainEngine(t, 0, false)
	res := mustExec(t, e, "explain analyze"+chainQuery, nil)
	tb := res[len(res)-1].Table
	if tb == nil || tb.NumRows() == 0 {
		t.Fatal("explain analyze returned no plan rows")
	}
	if tb.Schema().Index("action") < 0 {
		t.Fatalf("plan table lacks action column: %v", tb.Schema())
	}
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		op := tb.Value(r, 1).String()
		if op == "statement" || op == "sweep" {
			t.Fatalf("flat plan trace contains a %q row", op)
		}
	}
}

// TestClusterChainEquivalence checks a chain reduced on the simulated
// cluster captures exactly the subgraph of the serial Eq. 5 culling,
// across both placement strategies and partition counts.
func TestClusterChainEquivalence(t *testing.T) {
	base := chainEngine(t, 0, false)
	want := subgraphFingerprint(mustExec(t, base, chainQuery, nil)[0].Subgraph)
	for _, tc := range []struct {
		parts int
		block bool
	}{{2, false}, {3, false}, {2, true}, {5, true}} {
		e := chainEngine(t, tc.parts, tc.block)
		if got := subgraphFingerprint(mustExec(t, e, chainQuery, nil)[0].Subgraph); got != want {
			t.Errorf("parts=%d block=%v:\n got  %s\n want %s", tc.parts, tc.block, got, want)
		}
	}
}

// TestClusterTraceSpans checks a traced cluster-routed chain yields the
// statement > cluster > superstep > node hierarchy with exchange stats.
func TestClusterTraceSpans(t *testing.T) {
	e := chainEngine(t, 2, false)
	tr := obs.NewTrace(obs.TraceID{})
	if _, err := e.WithTrace(tr, nil).ExecScript(chainQuery, nil); err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d", len(tree.Roots))
	}
	var cl *obs.SpanNode
	for _, c := range tree.Roots[0].Children {
		if c.Action == "cluster" {
			cl = c
		}
	}
	if cl == nil {
		t.Fatalf("no cluster span under statement; children = %v", actionsOf(tree.Roots[0].Children))
	}
	if cl.Attrs["rounds"] == "" || cl.Attrs["messages"] == "" || cl.Attrs["bytes_sent"] == "" {
		t.Fatalf("cluster span attrs: %v", cl.Attrs)
	}
	// Two chain edges → forward supersteps plus backward cull rounds.
	if n := countAction(cl.Children, "superstep"); n < 2 {
		t.Fatalf("superstep spans = %d, want >= 2", n)
	}
	found := false
	for _, ss := range cl.Children {
		if ss.Action == "superstep" && countAction(ss.Children, "node") > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no per-node spans under any superstep")
	}
}

// TestStatementLabelRenderedOnce: every traced execution of a prepared
// statement labels its statement span the same, and only the first one
// renders the label from the AST.
func TestStatementLabelRenderedOnce(t *testing.T) {
	e := chainEngine(t, 0, false)
	p, err := e.Prepare(`select b.id, c.country from graph City (id = %Start% and country <> 'XX') --road--> def b: City ( ) --road--> def c: City (country = 'CA' or country = 'US')`)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]value.Value{"Start": value.NewString("c1")}
	run := func() string {
		tr := obs.NewTrace(obs.TraceID{})
		if _, err := e.WithTrace(tr, nil).ExecPrepared(p, params); err != nil {
			t.Fatal(err)
		}
		roots := tr.Tree().Roots
		if len(roots) != 1 || roots[0].Action != "statement" {
			t.Fatalf("roots = %+v, want one statement span", roots)
		}
		return roots[0].Detail
	}
	first, second := run(), run()
	if first == "" || first != second || !strings.HasPrefix(first, "select b.id") {
		t.Fatalf("statement labels %q then %q, want one non-empty label", first, second)
	}
	// Rendering the label on every execution cost 236 allocations here
	// (196 now); the ceiling is that count less ten.
	allocs := testing.AllocsPerRun(50, func() {
		tr := obs.NewTrace(obs.TraceID{})
		if _, err := e.WithTrace(tr, nil).ExecPrepared(p, params); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 226 {
		t.Errorf("traced execute allocates %.0f objects, want <= 226", allocs)
	}
}

// TestTracedDMLSpans: a traced update of a table that feeds views shows
// every phase of the write under its statement span, the same spans DML
// EXPLAIN ANALYZE renders: the verb (timed over the build), one span per
// maintained view named by EXPLAIN's action, the WAL append and the
// commit.
func TestTracedDMLSpans(t *testing.T) {
	e := newDurableEngine(t, t.TempDir(), nil)
	mustExec(t, e, dmlViewScript+`
insert into Person values (1, 'rome'), (2, 'oslo')
insert into Knows values (1, 2, 2020)`, nil)
	const stmt = `update Person set city = 'lima' where id = 2`
	var want []string
	plan := mustExec(t, e, "explain "+stmt, nil)[0].Table
	for r := uint32(0); r < uint32(plan.NumRows()); r++ {
		if plan.Value(r, 1).Str() == "maintain" {
			want = append(want, plan.Value(r, 2).Str())
		}
	}
	if len(want) == 0 {
		t.Fatal("explain names no maintained view")
	}

	tr := obs.NewTrace(obs.TraceID{})
	if _, err := e.WithTrace(tr, nil).ExecScript(stmt, nil); err != nil {
		t.Fatal(err)
	}
	roots := tr.Tree().Roots
	if len(roots) != 1 || roots[0].Action != "statement" {
		t.Fatalf("roots = %v, want one statement span", actionsOf(roots))
	}
	kids := roots[0].Children
	if len(kids) == 0 || kids[0].Action != "update" || kids[0].Rows != 1 {
		t.Fatalf("statement children = %v, want the update span (1 row) first", actionsOf(kids))
	}
	if kids[0].ElapsedUs == 0 {
		t.Error("the update span has no elapsed time: it must cover the build")
	}
	var got []string
	for _, k := range kids[1:] {
		switch k.Action {
		case carryVertex, patchVertex, carryEdge, patchEdge, rebuildEdge:
			got = append(got, k.Action+" "+k.Detail)
		}
	}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("maintenance spans %v, want explain's %v", got, want)
	}
	if n := countAction(kids, "wal"); n != 1 {
		t.Errorf("%d wal spans, want 1", n)
	}
	if n := countAction(kids, "commit"); n != 1 {
		t.Errorf("%d commit spans, want 1", n)
	}
}
