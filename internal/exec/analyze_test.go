package exec

import (
	"strconv"
	"strings"
	"testing"

	"graql/internal/obs"
)

// analyzeRows runs an explain-analyze statement and returns the plan rows
// as [action, detail, rows, time_us] string tuples (est_rows, between
// detail and rows in the table, is dropped here; estimate tests read it
// via analyzeEstRows).
func analyzeRows(t *testing.T, e *Engine, q string) [][]string {
	t.Helper()
	res := mustExec(t, e, q, nil)
	tb := res[len(res)-1].Table
	if tb == nil {
		t.Fatal("explain analyze must return a table")
	}
	want := []string{"step", "action", "detail", "est_rows", "rows", "time_us"}
	got := tb.Schema().Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("plan columns = %v, want %v", got, want)
	}
	var out [][]string
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		out = append(out, []string{
			tb.Value(r, 1).String(), tb.Value(r, 2).String(),
			tb.Value(r, 4).String(), tb.Value(r, 5).String(),
		})
	}
	return out
}

func findRow(rows [][]string, action string) []string {
	for _, r := range rows {
		if r[0] == action {
			return r
		}
	}
	return nil
}

// TestExplainAnalyzeGraphRowsMatchPlain: the traced result cardinality
// must agree with the plain query's.
func TestExplainAnalyzeGraphRowsMatchPlain(t *testing.T) {
	e := semaEngine(t)
	const q = `select B.id from graph A ( ) --e--> def B: B ( )`
	plain := tableRows(t, mustExec(t, e, q, nil))
	rows := analyzeRows(t, e, "explain analyze "+q)

	res := findRow(rows, "result")
	if res == nil {
		t.Fatalf("no result span in plan:\n%v", rows)
	}
	if res[2] != itoa(len(plain)) {
		t.Errorf("result span rows = %s, want %d (plain query cardinality)", res[2], len(plain))
	}
	// The matcher's last expand produces exactly the emitted bindings.
	exp := findRow(rows, "expand")
	if exp == nil {
		t.Fatalf("no expand span in plan:\n%v", rows)
	}
	if exp[2] != itoa(len(plain)) {
		t.Errorf("expand span rows = %s, want %d", exp[2], len(plain))
	}
	if findRow(rows, "scan") == nil {
		t.Errorf("plan should include the start scan:\n%v", rows)
	}
}

// TestExplainAnalyzeTableSelect: filter/result spans carry the actual
// surviving row counts of a relational select.
func TestExplainAnalyzeTableSelect(t *testing.T) {
	e := semaEngine(t)
	const q = `select id from table TA where n > 1`
	plain := tableRows(t, mustExec(t, e, q, nil))
	rows := analyzeRows(t, e, "explain analyze "+q)

	if scan := findRow(rows, "scan"); scan == nil || scan[2] != "4" {
		t.Errorf("scan span should count all 4 TA rows: %v", scan)
	}
	if f := findRow(rows, "filter"); f == nil || f[2] != itoa(len(plain)) {
		t.Errorf("filter span should count surviving rows (%d): %v", len(plain), f)
	}
	if res := findRow(rows, "result"); res == nil || res[2] != itoa(len(plain)) {
		t.Errorf("result span should match plain cardinality (%d): %v", len(plain), res)
	}
}

// TestExplainAnalyzeChainFastPath: the Eq. 5 bitmap engine traces its
// forward/backward passes, and like EXPLAIN the into-subgraph result is
// not registered.
func TestExplainAnalyzeChainFastPath(t *testing.T) {
	e := semaEngine(t)
	rows := analyzeRows(t, e, `explain analyze select * from graph A ( ) --e--> B ( ) into subgraph ga`)
	if findRow(rows, "capture-expand") == nil || findRow(rows, "capture-cull") == nil {
		t.Fatalf("chain query should trace capture-expand and capture-cull spans:\n%v", rows)
	}
	if e.Cat.Subgraph("ga") != nil {
		t.Error("explain analyze must not register the subgraph")
	}
	// The result span reports the subgraph cardinality.
	res := findRow(rows, "result")
	if res == nil || !strings.Contains(res[1], "subgraph") {
		t.Errorf("result span should describe the subgraph: %v", res)
	}
}

// TestExplainAnalyzeReduceRows: a table query shows one reduce row per
// Eq. 5 pass step that ran, with the cardinality of the set it left — and
// none when no step but the start carries a condition or a seed.
func TestExplainAnalyzeReduceRows(t *testing.T) {
	e := semaEngine(t)
	rows := analyzeRows(t, e, `explain analyze select x.id from graph def x: A (id = 'a0') --e--> B (n < 1)`)
	var got []string
	for _, r := range rows {
		if r[0] == "reduce" {
			got = append(got, r[1]+" = "+r[2])
		}
	}
	// The planner starts at B: only b0 has n < 1, and of its sources only
	// a0 passes x's condition.
	want := []string{"forward to x (Eq. 5 step 1) = 1", "backward cull at B = 1"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("reduce rows = %q, want %q\n%v", got, want, rows)
	}
	if scan := findRow(rows, "scan"); scan == nil || scan[2] != "1" {
		t.Errorf("the start scan should count the culled start set (1): %v", scan)
	}
	rows = analyzeRows(t, e, `explain analyze select B.id from graph A (n < 2) --e--> def B: B ( )`)
	if r := findRow(rows, "reduce"); r != nil {
		t.Errorf("a pattern restricted at its start only runs no pass: %v", r)
	}
}

// TestExplainAnalyzeDistinctSort: post-processing operators appear with
// their output cardinalities.
func TestExplainAnalyzeDistinctSort(t *testing.T) {
	e := semaEngine(t)
	const q = `select distinct B.id from graph A ( ) --e--> def B: B ( ) order by id`
	plain := tableRows(t, mustExec(t, e, q, nil))
	rows := analyzeRows(t, e, "explain analyze "+q)
	if d := findRow(rows, "distinct"); d == nil || d[2] != itoa(len(plain)) {
		t.Errorf("distinct span should count deduplicated rows (%d): %v", len(plain), d)
	}
	if s := findRow(rows, "sort"); s == nil || s[2] != itoa(len(plain)) {
		t.Errorf("sort span should count sorted rows (%d): %v", len(plain), s)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestStripExplainPrefix(t *testing.T) {
	cases := map[string]string{
		"explain analyze select 1 from table t":   "select 1 from table t",
		"EXPLAIN ANALYZE select 1 from table t":   "select 1 from table t",
		"explain\n\tanalyze\nselect 1":            "select 1",
		"  explain select 1 from table t":         "select 1 from table t",
		"select 1 from table t":                   "select 1 from table t",
		"select explained from table analyze_log": "select explained from table analyze_log",
	}
	for in, want := range cases {
		if got := stripExplainPrefix(in); got != want {
			t.Errorf("stripExplainPrefix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestExplainAnalyzePreparedCacheProbe: the plan-cache row of a prepared
// EXPLAIN ANALYZE keys on the same fingerprint as plain execution (the
// explain-stripped statement source), so a warm plain shape reports a
// hit even though the prepared statement was never executed from text.
// It tests the slot as execution does: a result published under another
// name since does not make the warm shape's plan stale.
func TestExplainAnalyzePreparedCacheProbe(t *testing.T) {
	e := planCacheEngine(t, 0)
	const plain = `select name from table Items where id = 1`
	mustExec(t, e, plain, nil) // warm the plain shape
	mustExec(t, e, `select id from table Items into table Snap`, nil)
	p, err := e.Prepare("explain analyze " + plain)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := res[len(res)-1].Table
	found := false
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		if tb.Value(r, 1).Str() != "plan cache" {
			continue
		}
		found = true
		if detail := tb.Value(r, 2).Str(); !strings.HasPrefix(detail, "hit") {
			t.Errorf("prepared explain analyze should probe the plain shape's cache entry, got %q", detail)
		}
	}
	if !found {
		t.Fatalf("no plan cache row in prepared explain analyze output")
	}
}

// TestEngineMetricsCounters: a query run under a registry moves the
// statement, scan and traversal counters and the latency histogram; a path
// regular expression moves the traversal counter too.
func TestEngineMetricsCounters(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.FileOpener = memFS(semaFiles)
	opts.Obs = obs.New()
	e := New(opts)
	mustExec(t, e, semaSchema, nil)
	mustExec(t, e, `select B.id from graph A ( ) --e--> def B: B ( )`, nil)

	text := opts.Obs.PrometheusText()
	for _, want := range []string{
		"graql_statements_total",
		"graql_queries_total",
		"graql_edges_traversed_total",
		"graql_rows_scanned_total",
		"graql_statement_latency_seconds_bucket",
		`kind="select"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if c := opts.Obs.Counter("graql_edges_traversed_total", ""); c.Value() == 0 {
		t.Error("edge traversal counter should be non-zero after a path query")
	}
	if c := opts.Obs.Counter("graql_queries_total", ""); c.Value() == 0 {
		t.Error("query counter should be non-zero")
	}
	// The product BFS of a path regular expression walks the edge indexes
	// through the same accounting as every other sweep.
	edges := opts.Obs.Counter("graql_edges_traversed_total", "")
	before := edges.Value()
	mustExec(t, e, `select * from graph A ( ) ( --loop--> [ ] ){2} A ( ) into subgraph rx`, nil)
	if edges.Value() == before {
		t.Error("a path regular expression should move the edge traversal counter")
	}
}
