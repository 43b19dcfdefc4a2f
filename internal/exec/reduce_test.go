package exec

import (
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"graql/internal/bsbm"
	"graql/internal/cluster"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/value"
)

// Directed cases for the set-at-a-time matcher (DESIGN.md "Path matching"):
// each pins one rule of the reducer on a hand-built frontier and checks
// the engine against Eq. 5 read literally (referenceTable).

// frontierFiles: a0 reaches b0 (n = 1), b1 (n NULL) and b2 (n = 9) over e;
// a1 reaches b2 only; b3 (n = 0) is reached by nobody.
var frontierFiles = map[string]string{
	"ta.csv": "a0,0\na1,1\n",
	"tb.csv": "b0,1\nb1,\nb2,9\nb3,0\n",
	"te.csv": "a0,b0,1\na0,b1,2\na0,b2,3\na1,b2,4\n",
	"tf.csv": "b0,a1\n",
	"tl.csv": "a0,a1\n",
}

func frontierEngine(t *testing.T) *Engine {
	e := newTestEngine(frontierFiles)
	mustExec(t, e, semaSchema, nil)
	return e
}

// sameAsReference runs q and checks its rows, as a multiset, against the
// reference evaluator and against want.
func sameAsReference(t *testing.T, e *Engine, q string, want ...string) {
	t.Helper()
	got := []string{}
	for _, row := range tableRows(t, mustExec(t, e, q, nil)) {
		got = append(got, strings.Join(row, ","))
	}
	slices.Sort(got)
	if ref := referenceTable(t, e, mustAnalyze(t, e, q), nil); !slices.Equal(got, ref) || !slices.Equal(got, want) {
		t.Errorf("%s\nengine    %v\nreference %v\nwant      %v", q, got, ref, want)
	}
}

// A step condition is three-valued over one frontier: only the vertices
// on which it is TRUE stay, under negation too.
func TestStepConditionThreeValuedOverFrontier(t *testing.T) {
	e := frontierEngine(t)
	sameAsReference(t, e, `select y.id from graph A (id = 'a0') --e--> def y: B (n < 5)`, "b0")
	sameAsReference(t, e, `select y.id from graph A (id = 'a0') --e--> def y: B (not (n < 5))`, "b2")
	sameAsReference(t, e, `select y.id from graph A (id = 'a0') --e--> def y: B (n < 5 or n >= 5)`, "b0", "b2")
}

// A frontier of exactly one vertex, and one that a condition empties.
func TestSingleVertexFrontier(t *testing.T) {
	e := frontierEngine(t)
	sameAsReference(t, e, `select y.id from graph A (id = 'a1') --e--> def y: B (n >= 0)`, "b2")
	sameAsReference(t, e, `select y.id from graph A (id = 'a1') --e--> def y: B (n < 0)`)
}

// The evaluation domain of a step condition: every seeded vertex the
// forward pass reaches through tree edges, and no other. b3 fails 10 / n
// but nothing reaches it; b1 has no n, which is NULL, not an error. A
// vertex inside the frontier that fails the condition fails the query —
// also when another branch of the pattern would have matched nothing, for
// the passes run set-at-a-time, before any binding is enumerated.
func TestStepConditionErrorDomain(t *testing.T) {
	e := frontierEngine(t)
	sameAsReference(t, e, `select y.id from graph A (id = 'a0') --e--> def y: B (20 / n > 1)`, "b0", "b2")
	// A free start is every vertex of its type, and the step below it is
	// still decided on what those reach, not on its whole type.
	sameAsReference(t, e, `select y.id from graph A ( ) --e--> def y: B (20 / n > 1)`, "b0", "b2", "b2")
	sameAsReference(t, e, `select y.id from graph A (n >= 0) --e--> def y: B (20 / n > 1)`, "b0", "b2", "b2")
	// b0 fails 10 / (n - 1), but no edge with w > 3 leaves a0: an empty
	// frontier evaluates nothing (the reference, which decides every
	// condition on every tuple, cannot referee this one).
	if rows := tableRows(t, mustExec(t, e, `select y.id from graph A (id = 'a0') --e (w > 3)--> def y: B (10 / (n - 1) > 1)`, nil)); len(rows) != 0 {
		t.Errorf("rows behind a closed edge condition: %v", rows)
	}
	for _, q := range []string{
		`select y.id from graph A (id = 'a0') --e--> def y: B (10 / (n - 1) > 1)`,
		`select y.id from graph foreach x: A (id = 'a0') --e--> def y: B (10 / (n - 1) > 1) and (x --loop--> A (not (n <= 100)))`,
	} {
		if _, err := e.ExecScript(q, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s\nerror %v, want the division by zero on b0", q, err)
		}
	}
}

// The evaluation domain is the same wherever the expansions run: captured
// into a subgraph, the error-domain cases come back with the local answer
// from simulated partitions, hash and block placed, and from worker
// processes over a loopback TCPTransport — b3, which nothing reaches, is
// never divided by, and neither is b0 behind the closed edge condition,
// whose expansion stays on the coordinator.
func TestStepConditionErrorDomainOnCluster(t *testing.T) {
	local := frontierEngine(t)
	sim := frontierEngine(t)
	netted := frontierEngine(t)
	tcp := loopbackCluster(t, netted, 2)
	for _, q := range []string{
		`select * from graph A (id = 'a0') --e--> B (20 / n > 1) into subgraph s`,
		`select * from graph A ( ) --e--> B (20 / n > 1) into subgraph s`,
		`select * from graph A (n >= 0) --e--> B (20 / n > 1) into subgraph s`,
		`select * from graph A (id = 'a0') --e (w > 3)--> B (10 / (n - 1) > 1) into subgraph s`,
	} {
		want := subgraphFingerprint(mustExec(t, local, q, nil)[0].Subgraph)
		for _, route := range []struct {
			name string
			e    *Engine
			dist cluster.Transport
		}{{"hash", sim, cluster.Simulated(2, cluster.Hash)}, {"block", sim, cluster.Simulated(2, cluster.Block)}, {"tcp", netted, tcp}} {
			route.e.Opts.Dist = route.dist
			res, err := route.e.ExecScript(q, nil)
			if err != nil {
				t.Errorf("%s on %s: %v", q, route.name, err)
				continue
			}
			if got := subgraphFingerprint(res[0].Subgraph); got != want {
				t.Errorf("%s on %s:\n got  %s\n want %s", q, route.name, got, want)
			}
		}
	}
}

// TestSimulatedClusterSeesWrites: simulated partitions expand over the
// graph each query planned against, so the inserts, updates and deletes
// between queries show in their answers — chains and trees, into table
// and into subgraph, hash and block placed — exactly as on an engine
// with no cluster.
func TestSimulatedClusterSeesWrites(t *testing.T) {
	local := frontierEngine(t)
	hash, block := frontierEngine(t), frontierEngine(t)
	hash.Opts.Dist = cluster.Simulated(2, cluster.Hash)
	block.Opts.Dist = cluster.Simulated(3, cluster.Block)
	reg := obs.New()
	hash.Opts.Obs, block.Opts.Obs = reg, reg
	queries := []string{
		`select x.id, z.id as z from graph def x: A ( ) --e--> B (n > 0) --f--> def z: A ( )`,
		`select x.id, y.id as y from graph foreach x: A ( ) --e--> def y: B (n < 8) and (x --loop--> A ( ))`,
		`select * from graph A ( ) --e--> B ( ) --f--> A ( ) into subgraph chain`,
		`select * from graph foreach x: A ( ) --e--> B (n < 8) and (x --loop--> A ( )) into subgraph tree`,
	}
	answer := func(e *Engine, q string) string {
		res := mustExec(t, e, q, nil)
		if sg := res[len(res)-1].Subgraph; sg != nil {
			return subgraphFingerprint(sg)
		}
		var rows []string
		for _, row := range tableRows(t, res) {
			rows = append(rows, strings.Join(row, ","))
		}
		slices.Sort(rows)
		return strings.Join(rows, " ")
	}
	for _, write := range []string{
		``,
		`insert into TB values ('b4', 2), ('b5', 7)`,
		`insert into TE values ('a1', 'b4', 5), ('a1', 'b5', 6), ('a0', 'b3', 7)`,
		`insert into TF values ('b4', 'a0'), ('b2', 'a1'), ('b5', 'a1')`,
		`insert into TA values ('a2', 4)`,
		`insert into TL values ('a2', 'a0'), ('a1', 'a2')`,
		`update TB set n = n + 1 where id = 'b2' or id = 'b3'`,
		`update TE set dst = 'b5' where src = 'a0' and dst = 'b1'`,
		`delete from TE where dst = 'b0'`,
		`delete from TB where id = 'b4'`,
		`delete from TA where id = 'a1'`,
	} {
		for _, e := range []*Engine{local, hash, block} {
			if write != "" {
				mustExec(t, e, write, nil)
			}
		}
		for _, q := range queries {
			want := answer(local, q)
			for name, e := range map[string]*Engine{"hash": hash, "block": block} {
				if got := answer(e, q); got != want {
					t.Errorf("after %q, %s on %s:\n got  %s\n want %s", write, q, name, got, want)
				}
			}
		}
	}
	if !strings.Contains(reg.PrometheusText(), "graql_cluster_rounds_total") {
		t.Error("no query ran a superstep")
	}
}

// loopbackCluster serves e's graph from parts hash-placed workers on
// loopback listeners and returns a transport dialed to them; everything
// is torn down with the test.
func loopbackCluster(t *testing.T, e *Engine, parts int) *cluster.TCPTransport {
	t.Helper()
	g := e.Cat.Graph()
	addrs := make([]string, parts)
	for p := range addrs {
		wk, err := cluster.NewWorker(g, p, parts, cluster.Hash)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[p] = ln.Addr().String()
		go wk.Serve(ln) //nolint:errcheck // returns once the worker closes
		t.Cleanup(func() { wk.Close(); ln.Close() })
	}
	tp, err := cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy: cluster.Hash, Fingerprint: cluster.GraphFingerprint(g), Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	return tp
}

// Two or-alternatives project the same column from different source
// tables: the second one's rows are appended column-wise onto the first's.
func TestOrAlternativesAppendColumnWise(t *testing.T) {
	e := frontierEngine(t)
	sameAsReference(t, e, `select x.id, x.n as k from graph def x: A ( ) --e--> B (n > 0)
or def x: B ( ) --f--> A ( )`, "a0,0", "a0,0", "a1,1", "b0,1")
	// The first alternative matches nothing, so the second is the table.
	sameAsReference(t, e, `select x.id from graph def x: A (n > 5) --e--> B ( )
or def x: B (n > 5) --f--> A ( ) or def x: B (n > 5) <--e-- A ( )`, "b2", "b2")
}

// Which alternative contributes first does not decide what the other may
// append: the result's varchar columns are typed by kind alone. A.id is
// varchar(8), W.id varchar(12).
func TestOrAlternativesOfDifferentWidths(t *testing.T) {
	files := map[string]string{"tw.csv": "long-name-01,a0\n"}
	for k, v := range frontierFiles {
		files[k] = v
	}
	e := newTestEngine(files)
	mustExec(t, e, semaSchema+`
create table tw (id varchar(12), a varchar(8))
ingest table tw tw.csv
create vertex W(id) from table tw
create edge g with vertices (W, A) from table tw where tw.id = W.id and tw.a = A.id`, nil)
	sameAsReference(t, e, `select x.id from graph def x: A (id = 'a1') --loop--> A ( )
or def x: W ( ) --g--> A ( )`, "long-name-01")
	sameAsReference(t, e, `select x.id from graph def x: A ( ) --loop--> A ( )
or def x: W ( ) --g--> A ( )`, "a0", "long-name-01")
	sameAsReference(t, e, `select x.id from graph def x: W ( ) --g--> A ( )
or def x: A ( ) --loop--> A ( )`, "a0", "long-name-01")
}

// A step condition's filter that fans out is a sweep of the query like the
// matcher's others: traced under the statement span with its fan-out (three
// 4096-row morsels on four workers).
func TestStepFilterFanOutIsTraced(t *testing.T) {
	e := newSelfEdgeEngine(t, 10000)
	e.Opts.Workers, e.Opts.ParallelThreshold = 4, 1
	tr := obs.NewTrace(obs.TraceID{})
	if _, err := e.WithTrace(tr, nil).ExecScript(`select b.id from graph NodeVtx (val >= 0.0) --prev--> def b: NodeVtx`, nil); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Tree().Roots[0].Children {
		if sp.Action == "sweep" && sp.Detail == "candidate scan NodeVtx" {
			if sp.Attrs["shards"] != "3" || sp.Attrs["workers"] != "3" {
				t.Errorf("candidate scan sweep attrs %v, want 3 shards on 3 workers", sp.Attrs)
			}
			return
		}
	}
	t.Errorf("no sweep span for the condition scan: %v", actionsOf(tr.Tree().Roots))
}

// A seed that does not resolve is the matcher's error, not a panic.
func TestUnknownSeedIsAnError(t *testing.T) {
	e := frontierEngine(t)
	mustExec(t, e, `select * from graph A ( ) --e--> B ( ) into subgraph s1`, nil)
	sel := mustAnalyze(t, e, `select y.id from graph s1.A ( ) --e--> def y: B ( )`)
	pat := sel.GraphAlts[0].Pattern
	pat.Nodes[0].Seed = "gone"
	conds := make([]expr.Expr, 2)
	_, err := e.newMatcher(pat, []*graph.VertexType{pat.Nodes[0].Type, pat.Nodes[1].Type},
		[]*graph.EdgeType{pat.Edges[0].Type}, conds, conds[:1])
	if err == nil || !strings.Contains(err.Error(), "unknown subgraph gone") {
		t.Fatalf("newMatcher with an unresolvable seed: error %v", err)
	}
}

// TestGraphSelectAllocs guards the allocation budget of the selects the
// repository benchmark gates at +5 % allocs/op: the two one-hop lookups of
// serve_* (s3) and write_mixed (writeRead), whose ceilings are what the
// row-at-a-time matcher spent and must not rise, and which stay on the
// enumerate route; serve_*'s table lookup (s1), whose stored plan is
// reused in place and whose ceiling is what it spent before plans were
// keyed on what they read; BQ6 (reduce-only) and BQ1 (count), bi_graph's
// largest answers, whose ceilings are what they spend answered from the
// reduced sets with both statements' plans reused (the into-select's and
// its consumer's, rebound to the script's own result); and dist_chain's
// chain on two simulated partitions, whose plan is reused too. Counts
// move by one or two with how the sweep goroutines interleave (distChain
// reads 221 or 222 under -race).
func TestGraphSelectAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.FileOpener = memFS(bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42}).Files)
	berlin := New(opts)
	mustExec(t, berlin, bsbm.FullDDL, nil)
	opts.Dist = cluster.Simulated(2, cluster.Hash)
	dist := New(opts)
	mustExec(t, dist, bsbm.FullDDL, nil)
	nodes := newSelfEdgeEngine(t, 8000)
	nodes.Opts.Workers = 2
	country, _ := bsbm.TypedParams(bsbm.DefaultParams())
	for _, c := range []struct {
		name    string
		e       *Engine
		src     string
		params  map[string]value.Value
		ceiling float64
	}{
		{"s3", berlin, `select b.id from graph TypeVtx (id = %Id% and publisher <> %Publisher%) --subclass--> def b: TypeVtx`,
			map[string]value.Value{"Id": value.NewString("t3"), "Publisher": value.NewString("nobody")}, 88}, // parent 88, now 66
		{"writeRead", nodes, `select b.id, b.val from graph NodeVtx (id = %Id%) --prev--> def b: NodeVtx`,
			map[string]value.Value{"Id": value.NewInt(4321)}, 73}, // parent 73, now 54
		{"s1", berlin, `select id, label, country from table Producers where id = %Id% and publisher <> %Publisher%`,
			map[string]value.Value{"Id": value.NewString("m3"), "Publisher": value.NewString("nobody")}, 41}, // parent 41
		{"BQ6", berlin, bsbm.Q6.Script, country, 103}, // enumerated 168, reduced 159, both plans reused 100
		{"BQ1", berlin, bsbm.Q1.Script, country, 222}, // enumerated 373, counted 300, both plans reused 219
		{"distChain", dist, `select * from graph ProducerVtx (country = %Country%) <--producer-- ProductVtx (propertyNumeric_1 > %Lower%) <--reviewFor-- ReviewVtx into subgraph distChain`,
			map[string]value.Value{"Country": value.NewString("US"), "Lower": value.NewInt(500)}, 224}, // parent 305, 268, plan reused 221–222
	} {
		p, err := c.e.Prepare(c.src)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := c.e.ExecPrepared(p, c.params); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestBerlinHeapCeiling guards heap_live_mb, which the repository
// benchmark gates at +5 %: the resident size of a loaded Berlin engine
// (SF5; HeapAlloc after a forced collection, less what the generated CSV
// text holds). It was 4.92 MiB while every varchar column kept a
// map[string]uint32 index and its strings pinned their CSV record lines,
// 3.16 MiB with open-addressing dictionary indexes and strings copied
// into ingest arenas (2.60 MiB after later view changes), and is 2.07
// MiB with each dictionary one byte array and its end offsets and
// ingest's arrays at their length; the ceiling is that + 5 %.
func TestBerlinHeapCeiling(t *testing.T) {
	const ceiling = 2.07 * 1.05
	files := bsbm.Generate(bsbm.Config{ScaleFactor: 5, Seed: 42}).Files
	opts := DefaultOptions()
	opts.FileOpener = memFS(files)
	live := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	before := live()
	e := New(opts)
	mustExec(t, e, bsbm.FullDDL, nil)
	got := live() - before
	runtime.KeepAlive(e)
	runtime.KeepAlive(files)
	t.Logf("Berlin SF5 engine: %.3f MiB live", got)
	if got > ceiling {
		t.Errorf("Berlin SF5 engine holds %.3f MiB, ceiling %.3f", got, ceiling)
	}
}
