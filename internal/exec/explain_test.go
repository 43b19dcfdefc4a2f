package exec

import (
	"strings"
	"testing"

	"graql/internal/bsbm"
)

func explainText(t *testing.T, e *Engine, q string) string {
	t.Helper()
	res := mustExec(t, e, q, nil)
	tb := res[len(res)-1].Table
	if tb == nil {
		t.Fatal("explain must return a table")
	}
	var b strings.Builder
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		b.WriteString(tb.Value(r, 1).String())
		b.WriteString(": ")
		b.WriteString(tb.Value(r, 2).String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestExplainSelectiveEndUsesReverseIndex: the plan surfaces the §III-B
// direction decision.
func TestExplainSelectiveEndUsesReverseIndex(t *testing.T) {
	e := semaEngine(t)
	text := explainText(t, e, `explain select y.id from graph
def y: A ( ) --e--> B (id = 'b1')`)
	if !strings.Contains(text, "start at B") {
		t.Errorf("plan should start at the selective end:\n%s", text)
	}
	if !strings.Contains(text, "reverse index") {
		t.Errorf("plan should traverse the reverse index:\n%s", text)
	}
}

// TestExplainNamesTheRoute: the plan of a graph select names how it is
// answered (DESIGN.md §4). Into a table, BQ1, BQ2 and BQ4 count the
// bindings of the one step they project, BQ6 and BQ8 take the step's
// reduced set; BQ5 projects two steps, and a one-hop select (BQ3's shape)
// and a cyclic pattern enumerate too. Into a subgraph, dist_chain's chain,
// BQ7 and a star are captured from the reduced sets; a cyclic pattern and
// a cross-step condition enumerate.
func TestExplainNamesTheRoute(t *testing.T) {
	opts := DefaultOptions()
	opts.FileOpener = memFS(bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42}).Files)
	berlin := New(opts)
	mustExec(t, berlin, bsbm.FullDDL, nil)
	graphSelect := func(q bsbm.Query) string { return strings.SplitN(strings.TrimSpace(q.Script), "\n\n", 2)[0] }
	for _, c := range []struct {
		e     *Engine
		q     string
		route string
	}{
		{berlin, graphSelect(bsbm.Q1), "count"},
		{berlin, graphSelect(bsbm.Q2), "count"},
		{berlin, graphSelect(bsbm.Q4), "count"},
		{berlin, graphSelect(bsbm.Q6), "reduce-only"},
		{berlin, graphSelect(bsbm.Q8), "reduce-only"},
		{berlin, graphSelect(bsbm.Q3), "enumerate"},
		{berlin, graphSelect(bsbm.Q5), "enumerate"},
		{semaEngine(t), `select y.id from graph A (id = 'a0') --e--> def y: B ( )`, "enumerate"},
		{semaEngine(t), `select distinct x.id from graph foreach x: A ( ) --e--> B ( ) --f--> foreach y: A ( ) and (y --loop--> x)`, "enumerate"},
		{berlin, `select * from graph ProducerVtx (country = %Country%) <--producer-- ProductVtx (propertyNumeric_1 > %Lower%) <--reviewFor-- ReviewVtx into subgraph g`, "reduce-only"},
		{berlin, graphSelect(bsbm.Q7), "reduce-only"},
		{semaEngine(t), `select * from graph foreach x0: A ( ) --e--> B (n < 3) and (x0 --loop--> A ( )) and (x0 <--f-- B ( )) into subgraph g`, "reduce-only"},
		{semaEngine(t), `select * from graph foreach x: A ( ) --e--> B ( ) --f--> foreach y: A ( ) and (y --loop--> x) into subgraph g`, "enumerate"},
		{semaEngine(t), `select * from graph foreach x: A ( ) --e--> B (n >= x.n) into subgraph g`, "enumerate"},
	} {
		if text := explainText(t, c.e, "explain "+c.q); !strings.Contains(text, "strategy: "+c.route+" route") {
			t.Errorf("%s\nplan names no %s route:\n%s", c.q, c.route, text)
		}
	}
}

func TestExplainChainFastPath(t *testing.T) {
	e := semaEngine(t)
	text := explainText(t, e, `explain select * from graph A ( ) --e--> B ( ) into subgraph g`)
	if !strings.Contains(text, "strategy: reduce-only route") {
		t.Errorf("chain subgraph query should be captured from the reduced sets:\n%s", text)
	}
	if !strings.Contains(text, "expand: bind") {
		t.Errorf("plan should list the chain's visits after the route:\n%s", text)
	}
	if !strings.Contains(text, "subgraph g") {
		t.Errorf("plan should mention materialisation:\n%s", text)
	}
	// Explain must not actually register the subgraph.
	if e.Cat.Subgraph("g") != nil {
		t.Error("explain must not execute the query")
	}
}

func TestExplainTableSelect(t *testing.T) {
	e := semaEngine(t)
	text := explainText(t, e, `explain select id, count(*) as n from table TA where n > 1 group by id order by n desc`)
	for _, want := range []string{"scan: table TA", "filter: n > 1", "group:", "sort:"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in plan:\n%s", want, text)
		}
	}
}

func TestExplainVariantTypings(t *testing.T) {
	e := semaEngine(t)
	text := explainText(t, e, `explain select x.id from graph def x: A (id = 'a1') <--[ ]-- [ ]`)
	if !strings.Contains(text, "concrete typings") {
		t.Errorf("variant plan should report typing expansion:\n%s", text)
	}
}

func TestExplainUnboundParamsOK(t *testing.T) {
	e := semaEngine(t)
	// No parameter bindings supplied: explain still works.
	text := explainText(t, e, `explain select y.id from graph A (id = %P%) --e--> def y: B ( )`)
	if !strings.Contains(text, "start at") {
		t.Errorf("explain with params failed:\n%s", text)
	}
}

// explainEstRows returns action → est_rows for the first row of each
// action kind of an EXPLAIN plan.
func explainEstRows(t *testing.T, e *Engine, q string) map[string]string {
	t.Helper()
	res := mustExec(t, e, q, nil)
	tb := res[len(res)-1].Table
	if tb == nil {
		t.Fatal("explain must return a table")
	}
	if got := tb.Schema().Names()[3]; got != "est_rows" {
		t.Fatalf("column 4 = %s, want est_rows", got)
	}
	out := map[string]string{}
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		action := tb.Value(r, 1).Str()
		if _, ok := out[action]; !ok {
			out[action] = tb.Value(r, 3).Str()
		}
	}
	return out
}

// TestExplainEstRows: the est_rows column carries the static cardinality
// bounds — exact for an unconditional scan, loosened to a 0-based range
// by filters, clamped by top, unbounded through an unbounded regex.
func TestExplainEstRows(t *testing.T) {
	e := semaEngine(t)

	est := explainEstRows(t, e, `explain select id from table TA where n > 1`)
	if est["scan"] != "4" {
		t.Errorf("scan est_rows = %q, want exact table count 4", est["scan"])
	}
	if est["filter"] != "0..4" {
		t.Errorf("filter est_rows = %q, want 0..4", est["filter"])
	}

	est = explainEstRows(t, e, `explain select top 2 id from table TA`)
	if est["top"] != "2" {
		t.Errorf("top est_rows = %q, want 2", est["top"])
	}

	est = explainEstRows(t, e, `explain select B.id from graph A ( ) --e--> B ( )`)
	if !strings.HasPrefix(est["expand"], "0..") || strings.Contains(est["expand"], "inf") {
		t.Errorf("expand est_rows = %q, want a finite 0-based bound", est["expand"])
	}

	est = explainEstRows(t, e, `explain select B.id from graph A (id = 'a1') ( --e--> [ ] )* def B: B ( )`)
	if !strings.Contains(est["expand"], "inf") {
		t.Errorf("unbounded regex expand est_rows = %q, want an inf bound", est["expand"])
	}
}

// TestExplainOrCompositionBound: EXPLAIN of an or-composed select ends
// with a row carrying the union of the terms' bounds, the bound EXPLAIN
// ANALYZE prints on its result row.
func TestExplainOrCompositionBound(t *testing.T) {
	e := semaEngine(t)
	const q = `select x.id from graph def x: A (id = 'a0') --e--> B (n < 1) or A ( ) --loop--> def x: A ( )`
	plan := mustExec(t, e, "explain "+q, nil)[0].Table
	last := plan.Value(uint32(plan.NumRows()-1), 3).Str()
	ran := mustExec(t, e, "explain analyze "+q, nil)[0].Table
	result := ""
	for r := uint32(0); r < uint32(ran.NumRows()); r++ {
		if ran.Value(r, 1).Str() == "result" {
			result = ran.Value(r, 3).Str()
		}
	}
	if result == "" || last != result {
		t.Errorf("explain's last est_rows %q, explain analyze's result est_rows %q: want them equal", last, result)
	}
}
