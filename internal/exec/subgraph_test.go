package exec

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graql/internal/diag"
	"graql/internal/obs"
	"graql/internal/value"
)

// subgraphRuleSchema extends miniBerlin with a table no view reads (Z)
// and a review view that reads Products' vertex type but is not one of
// the types resQ1 holds (ProductVtx, FeatureVtx, feature).
const subgraphRuleSchema = miniBerlin + `
create table Z(id integer)
create table Reviews(id varchar(10), product varchar(10), rating integer)
create vertex ReviewVtx(id) from table Reviews
create edge reviewFor with vertices (ReviewVtx, ProductVtx) where ReviewVtx.product = ProductVtx.id
insert into Reviews values ('r1', 'p1', 3), ('r2', 'p3', 4)
`

const (
	intoResQ1 = `select * from graph ProductVtx (id = 'p1') --feature--> FeatureVtx into subgraph resQ1`
	// Products sharing a feature with p1, with multiplicity: p2 (f1, f2)
	// and p3 (f3).
	seededResQ1 = `select y.id from graph resQ1.FeatureVtx ( ) <--feature-- def y: ProductVtx (id <> 'p1')`
)

var seededWant = []string{"p2", "p2", "p3"}

func subgraphRuleEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(miniBerlinFiles)
	mustExec(t, e, subgraphRuleSchema, nil)
	return e
}

// sortedIDs returns the first column of a table result, sorted.
func sortedIDs(res Result) []string {
	var out []string
	if res.Table == nil {
		return nil
	}
	for r := uint32(0); r < uint32(res.Table.NumRows()); r++ {
		out = append(out, res.Table.Value(r, 0).String())
	}
	slices.Sort(out)
	return out
}

// isUnknownSubgraph reports whether err is a seeded step's GQL0107.
func isUnknownSubgraph(err error) bool {
	return err != nil && strings.Contains(err.Error(), string(diag.UnknownSubgraph))
}

// TestWriteToUnreadTableKeepsGraph: an insert into a table that no vertex
// or edge declaration reads publishes the table alone. The view graph
// stays the same pointer, so a named subgraph survives and answers its
// seeded select as before, and a prepared graph select's plan still hits.
func TestWriteToUnreadTableKeepsGraph(t *testing.T) {
	e := subgraphRuleEngine(t)
	mustExec(t, e, intoResQ1, nil)
	if got := sortedIDs(mustExec(t, e, seededResQ1, nil)[0]); !slices.Equal(got, seededWant) {
		t.Fatalf("seeded select before the insert = %v, want %v", got, seededWant)
	}
	p, err := e.Prepare(`select y.id from graph ProductVtx (id = 'p1') --feature--> FeatureVtx <--feature-- def y: ProductVtx ( )`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecPrepared(p, nil); err != nil {
		t.Fatal(err)
	}
	g, sg := e.Cat.Graph(), e.Cat.Subgraph("resQ1")
	hits, misses, evictions, _ := e.PlanCacheStats()

	mustExec(t, e, `insert into Z values (1)`, nil)
	if e.Cat.Graph() != g {
		t.Error("an insert into a table no view reads replaced the view graph")
	}
	if e.Cat.Subgraph("resQ1") != sg {
		t.Error("an insert into a table no view reads dropped resQ1")
	}
	if _, err := e.ExecPrepared(p, nil); err != nil {
		t.Fatal(err)
	}
	h, m, ev, _ := e.PlanCacheStats()
	if h-hits != 1 || m-misses != 0 || ev-evictions != 0 {
		t.Errorf("prepared graph select across the insert: +%d hits +%d misses +%d evictions, want +1/+0/+0", h-hits, m-misses, ev-evictions)
	}
	res, err := e.ExecScript(seededResQ1, nil)
	if err != nil {
		t.Fatalf("seeded select after the insert: %v", err)
	}
	if got := sortedIDs(res[0]); !slices.Equal(got, seededWant) {
		t.Errorf("seeded select after the insert = %v, want %v", got, seededWant)
	}
}

// TestSubgraphRule: a subgraph, published or the script's own, stays
// valid while every type it holds is the current one. A write to a table
// that feeds only types it does not hold (Reviews) keeps it; a write to a
// type it holds (Products under ProductVtx) drops it, and a seeded read
// then fails with GQL0107 rather than reading a stale set.
func TestSubgraphRule(t *testing.T) {
	for _, run := range []struct {
		name string
		exec func(*Engine, string, map[string]value.Value) ([]Result, error)
	}{{"ExecScript", (*Engine).ExecScript}} {
		t.Run(run.name, func(t *testing.T) {
			e := subgraphRuleEngine(t)
			exec := func(script string) ([]Result, error) { return run.exec(e, script, nil) }
			mustRun := func(script string) []Result {
				t.Helper()
				res, err := exec(script)
				if err != nil {
					t.Fatalf("%v\nscript:\n%s", err, script)
				}
				return res
			}
			mustRun(intoResQ1)

			// Published, kept: the update re-derives ReviewVtx and
			// reviewFor only.
			mustRun(`update Reviews set rating = rating + 1`)
			if got := sortedIDs(mustRun(seededResQ1)[0]); !slices.Equal(got, seededWant) {
				t.Errorf("published resQ1 after a Reviews update = %v, want %v", got, seededWant)
			}
			// The script's own, kept.
			res := mustRun(strings.ReplaceAll(intoResQ1, "resQ1", "own") + `
update Reviews set rating = 1 where id = 'r2'
` + strings.ReplaceAll(seededResQ1, "resQ1", "own"))
			if got := sortedIDs(res[2]); !slices.Equal(got, seededWant) {
				t.Errorf("the script's own subgraph after a Reviews update = %v, want %v", got, seededWant)
			}

			// The script's own, dropped: p4 has no feature, yet deleting
			// it replaces ProductVtx, which the subgraph holds.
			res, err := exec(strings.ReplaceAll(intoResQ1, "resQ1", "own") + `
delete from Products where id = 'p4'
` + strings.ReplaceAll(seededResQ1, "resQ1", "own"))
			if !isUnknownSubgraph(err) {
				t.Errorf("seeded read of the script's own stale subgraph: %v (results %v), want GQL0107", err, res)
			}
			// Published, dropped by the same delete.
			if e.Cat.Subgraph("resQ1") != nil {
				t.Error("a delete from Products kept resQ1, which holds ProductVtx")
			}
			if res, err := exec(seededResQ1); !isUnknownSubgraph(err) {
				t.Errorf("seeded read of a dropped subgraph: %v (results %v), want GQL0107", err, res)
			}
		})
	}
}

// TestSeededReadsDuringWrites: one goroutine seeds from resQ1 in a loop
// while another inserts into a table no view reads and now and then
// deletes a Products row (and puts it back and republishes resQ1). Every
// seeded answer is the one before the writes, or GQL0107 once a write
// replaced a type resQ1 holds; never an empty or misindexed set.
func TestSeededReadsDuringWrites(t *testing.T) {
	writes := 400
	if raceEnabled {
		writes = 100
	}
	e := subgraphRuleEngine(t)
	mustExec(t, e, intoResQ1, nil)
	var done atomic.Bool
	var ok, gone, wrong atomic.Int64
	reads := func() int64 { return ok.Load() + gone.Load() + wrong.Load() }
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { done.Store(true); wg.Wait() })
	defer stop()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			res, err := e.ExecScript(seededResQ1, nil)
			switch {
			case isUnknownSubgraph(err):
				gone.Add(1)
			case err != nil:
				t.Errorf("seeded read: %v", err)
				wrong.Add(1)
			case !slices.Equal(sortedIDs(res[0]), seededWant):
				t.Errorf("seeded read = %v, want %v", sortedIDs(res[0]), seededWant)
				wrong.Add(1)
			default:
				ok.Add(1)
			}
		}
	}()
	for i := 0; i < writes; i++ {
		mustExec(t, e, fmt.Sprintf(`insert into Z values (%d)`, i), nil)
		if i%10 == 9 {
			mustExec(t, e, `delete from Products where id = 'p4'`, nil)
			mustExec(t, e, `insert into Products values ('p4', 'Doohickey', 'm2')`, nil)
			mustExec(t, e, intoResQ1, nil)
			// Let one seeded read run whole against the republished
			// resQ1, however the goroutines are scheduled: the second
			// read to finish from here started after the republish.
			for n := reads(); reads() < n+2; {
				runtime.Gosched()
			}
		}
	}
	mustExec(t, e, `delete from Products where id = 'p4'`, nil)
	stop()
	if _, err := e.ExecScript(seededResQ1, nil); !isUnknownSubgraph(err) {
		t.Errorf("seeded read after the last delete: %v, want GQL0107", err)
	}
	t.Logf("%d seeded reads answered, %d found resQ1 dropped", ok.Load(), gone.Load())
	if wrong.Load() != 0 || ok.Load() == 0 {
		t.Fatalf("%d seeded reads answered, %d found resQ1 dropped, %d wrong", ok.Load(), gone.Load(), wrong.Load())
	}
}

// TestWriteToUnreadTableExplain: neither the plan nor the trace of a
// write to a table no view reads claims view maintenance: no maintain
// row, and a commit that installs no views. A write the views read still
// names both.
func TestWriteToUnreadTableExplain(t *testing.T) {
	e := subgraphRuleEngine(t)
	for _, c := range []struct {
		stmt  string
		views bool
	}{
		{`insert into Z values (1)`, false},
		{`insert into Reviews values ('r9', 'p2', 5)`, true},
	} {
		rows := map[string]string{}
		tb := mustExec(t, e, "explain "+c.stmt, nil)[0].Table
		for r := uint32(0); r < uint32(tb.NumRows()); r++ {
			rows[tb.Value(r, 1).Str()] = tb.Value(r, 2).Str()
		}
		if _, ok := rows["maintain"]; ok != c.views {
			t.Errorf("explain %s: maintain row %v, want %v (%v)", c.stmt, ok, c.views, rows)
		}
		if got := strings.Contains(rows["commit"], "install views"); got != c.views {
			t.Errorf("explain %s: commit %q, want install views %v", c.stmt, rows["commit"], c.views)
		}

		tr := obs.NewTrace(obs.TraceID{})
		if _, err := e.WithTrace(tr, nil).ExecScript(c.stmt, nil); err != nil {
			t.Fatal(err)
		}
		var commit string
		for _, sp := range tr.Tree().Roots[0].Children {
			if sp.Action == "commit" {
				commit = sp.Detail
			}
		}
		if got := strings.Contains(commit, "install views"); commit == "" || got != c.views {
			t.Errorf("%s: commit span %q, want install views %v", c.stmt, commit, c.views)
		}
	}
}

// TestPlanSlotsKeyOnTypes: a stored graph-mode plan follows the subgraph
// rule. It holds while every type it resolved is the current one, so a
// write that re-derives only other types (Reviews feeds ReviewVtx and
// reviewFor) and a new type keep it: the next execute is a hit with the
// same answer. A write that re-derives a type it resolved (Products under
// ProductVtx) makes it one miss and one eviction, and the answer is the
// new one.
func TestPlanSlotsKeyOnTypes(t *testing.T) {
	e := subgraphRuleEngine(t)
	p, err := e.Prepare(`select y.id from graph ProductVtx (id = 'p1') --feature--> FeatureVtx <--feature-- def y: ProductVtx ( )`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		write                   string
		hits, misses, evictions int64
		want                    []string
	}{
		{`update Reviews set rating = 2`, 1, 0, 0, []string{"p1", "p1", "p1", "p2", "p2", "p3"}},
		{`create vertex QV(id) from table Z`, 1, 0, 0, []string{"p1", "p1", "p1", "p2", "p2", "p3"}},
		{`delete from Products where id = 'p3'`, 0, 1, 1, []string{"p1", "p1", "p1", "p2", "p2"}},
	} {
		h0, m0, ev0, _ := e.PlanCacheStats()
		mustExec(t, e, c.write, nil)
		res, err := e.ExecPrepared(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedIDs(res[0]); !slices.Equal(got, c.want) {
			t.Errorf("after %s: %v, want %v", c.write, got, c.want)
		}
		h, m, ev, _ := e.PlanCacheStats()
		if h-h0 != c.hits || m-m0 != c.misses || ev-ev0 != c.evictions {
			t.Errorf("after %s: +%d hits +%d misses +%d evictions, want +%d/+%d/+%d", c.write, h-h0, m-m0, ev-ev0, c.hits, c.misses, c.evictions)
		}
	}
	// The per-type test is on every hit's path: it allocates nothing.
	sel := p.stmts[0].plan.Load()
	if n := testing.AllocsPerRun(100, func() { e.fresh(sel, nil) }); n != 0 {
		t.Errorf("fresh allocates %v times per call, want 0", n)
	}
}

// TestVariantStepSeesNewEdgeType: a variant step resolves no type, so a
// stored plan cannot freeze its expansion. After a second edge type
// between the same endpoints is created, the next execute of the plan is
// a hit and returns that type's edges too.
func TestVariantStepSeesNewEdgeType(t *testing.T) {
	e := subgraphRuleEngine(t)
	p, err := e.Prepare(`select y.id from graph ProductVtx (id = 'p2') --[ ]--> def y: FeatureVtx ( )`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedIDs(res[0]), []string{"f1", "f2"}; !slices.Equal(got, want) {
		t.Fatalf("before: %v, want %v", got, want)
	}
	mustExec(t, e, `create table Likes(product varchar(10), feature varchar(10))
insert into Likes values ('p2', 'f4')
create edge liked with vertices (ProductVtx, FeatureVtx) from table Likes
where Likes.product = ProductVtx.id and Likes.feature = FeatureVtx.id`, nil)
	h0, m0, _, _ := e.PlanCacheStats()
	if res, err = e.ExecPrepared(p, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedIDs(res[0]), []string{"f1", "f2", "f4"}; !slices.Equal(got, want) {
		t.Errorf("after create edge liked: %v, want %v", got, want)
	}
	if h, m, _, _ := e.PlanCacheStats(); h-h0 != 1 || m-m0 != 0 {
		t.Errorf("after create edge liked: +%d hits +%d misses, want +1/+0", h-h0, m-m0)
	}
}
