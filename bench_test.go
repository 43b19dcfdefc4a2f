// Benchmark harness for the evaluation suite of EXPERIMENTS.md (the paper
// defers its evaluation; DESIGN.md §3b defines experiments E1–E11, one
// bench family each). Run with:
//
//	go test -bench=. -benchmem
package graql_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"graql/internal/bitmap"
	"graql/internal/bsbm"
	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/graph"
	"graql/internal/ir"
	"graql/internal/parser"
	"graql/internal/table"
	"graql/internal/value"
)

// --- shared fixtures ---

var (
	fixturesMu sync.Mutex
	datasets   = map[int]*bsbm.Dataset{}
	engines    = map[string]*exec.Engine{}
)

func dataset(sf int) *bsbm.Dataset {
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if ds, ok := datasets[sf]; ok {
		return ds
	}
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: sf, Seed: 42})
	datasets[sf] = ds
	return ds
}

func opener(ds *bsbm.Dataset) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		body, ok := ds.Files[path]
		if !ok {
			return nil, fmt.Errorf("no generated file %s", path)
		}
		return io.NopCloser(strings.NewReader(body)), nil
	}
}

// berlinEngine returns a cached engine with the Berlin dataset loaded.
func berlinEngine(b *testing.B, sf, workers int, reverse bool) *exec.Engine {
	b.Helper()
	key := fmt.Sprintf("sf%d-w%d-r%v", sf, workers, reverse)
	fixturesMu.Lock()
	if e, ok := engines[key]; ok {
		fixturesMu.Unlock()
		return e
	}
	fixturesMu.Unlock()

	opts := exec.DefaultOptions()
	opts.Workers = workers
	opts.ReverseIndexes = reverse
	opts.FileOpener = opener(dataset(sf))
	e := exec.New(opts)
	if _, err := e.ExecScript(bsbm.FullDDL, nil); err != nil {
		b.Fatal(err)
	}
	fixturesMu.Lock()
	engines[key] = e
	fixturesMu.Unlock()
	return e
}

func suiteParams(tb testing.TB) map[string]value.Value {
	tb.Helper()
	params, err := bsbm.TypedParams(bsbm.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return params
}

// --- E1: ingest + view-build throughput ---

func BenchmarkIngestBerlin(b *testing.B) {
	for _, sf := range []int{1, 2, 5} {
		ds := dataset(sf)
		totalRows := 0
		for _, body := range ds.Files {
			totalRows += strings.Count(body, "\n")
		}
		b.Run(fmt.Sprintf("sf=%d", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := exec.DefaultOptions()
				opts.FileOpener = opener(ds)
				e := exec.New(opts)
				if _, err := e.ExecScript(bsbm.FullDDL, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(totalRows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// --- E2: Berlin query latency ---

func BenchmarkBerlin(b *testing.B) {
	for _, sf := range []int{1, 5, 60} {
		e := berlinEngine(b, sf, 0, true)
		params := suiteParams(b)
		for _, q := range bsbm.Suite {
			b.Run(fmt.Sprintf("%s/sf=%d", q.ID, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.ExecScript(q.Script, params); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E3: bidirectional-index ablation ---

// The query anchors at a few producers and walks two hops against the
// lexical edge direction; with reverse indexes each hop is an index
// probe per frontier vertex, without them each frontier vertex degrades
// to a full edge-list scan (§III-B).
const directionQuery = `
select y.id from graph
ProducerVtx (country = %Country1%)
<--producer-- ProductVtx ( )
<--reviewFor-- def y: ReviewVtx ( )
into table DirT`

func BenchmarkDirection(b *testing.B) {
	params := suiteParams(b)
	for _, reverse := range []bool{true, false} {
		name := "reverse-index=on"
		if !reverse {
			name = "reverse-index=off"
		}
		e := berlinEngine(b, 5, 0, reverse)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecScript(directionQuery, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E26/E27: one expansion hop, three loop shapes ---

// BenchmarkExpandHop prices the costliest hop of BQ1 and BQ6 at SF60 —
// the reviews of Country1's products expanded across reviewer to persons
// — in three loop shapes over the same frontier and target bitmap: the
// per-vertex shape set expansion had before the expansion kernel (a
// ForEachRange closure calling EdgeType.Adjacent, Get before Set, a poll
// tick per member) and the kernel (CSR.ExpandRange over 1 024 ids at a
// time, as wstate.expandRange calls it), both over a CSR-form copy of
// reviewer built here from its edge list, and the shipped code: the same
// kernel calls over reviewer's own functional index, a column.
func BenchmarkExpandHop(b *testing.B) {
	e := berlinEngine(b, 60, 0, true)
	if _, err := e.ExecScript(`select * from graph
ProducerVtx (country = %Country1%) <--producer-- ProductVtx <--reviewFor-- ReviewVtx
into subgraph HopS`, suiteParams(b)); err != nil {
		b.Fatal(err)
	}
	g := e.Cat.Graph()
	et := g.EdgeType("reviewer")
	if !et.Functional() {
		b.Fatal("reviewer is not functional")
	}
	var edges []graph.Edge
	for id := range et.IDs() {
		s, d := et.EdgeAt(id)
		edges = append(edges, graph.Edge{Src: s, Dst: d})
	}
	rows := graph.NewEdgeType(et.ID, et.Name, et.Src, et.Dst, edges, nil, true)
	from := e.Cat.Subgraph("HopS").VertexSet(g.VertexType("ReviewVtx"))
	out := bitmap.New(et.Dst.Count())
	n := uint32(from.Len())
	var tick uint32
	b.Logf("frontier %d reviews, %d persons reached", from.Count(), func() int {
		et.Forward().ExpandRange(from, 0, n, out)
		return out.Count()
	}())
	b.Run("closure+Adjacent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Reset()
			from.ForEachRange(0, n, func(v uint32) {
				if tick++; tick&1023 == 0 {
					tick = 0
				}
				nbr, _, _ := rows.Adjacent(v, true)
				for _, t := range nbr {
					if !out.Get(t) {
						out.Set(t)
					}
				}
			})
		}
	})
	kernel := func(csr *graph.CSR) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out.Reset()
				for lo := uint32(0); lo < n; lo += 1024 {
					members, _ := csr.ExpandRange(from, lo, min(n, lo+1024), out)
					tick += uint32(members)
				}
			}
		}
	}
	b.Run("kernel", kernel(rows.Index(true)))
	b.Run("column", kernel(et.Index(true)))
}

// --- E4: planner direction choice under a selectivity sweep ---

func BenchmarkPlannerSelectivity(b *testing.B) {
	e := berlinEngine(b, 5, 0, true)
	queries := map[string]string{
		// Selective start: one person; planner should go person→review.
		"selective-start": `select y.id from graph PersonVtx (id = 'u1') <--reviewer-- def y: ReviewVtx ( ) into table PT`,
		// Selective end: one product; planner should start at the far
		// end and use the reverse index.
		"selective-end": `select y.id from graph def y: ReviewVtx ( ) --reviewFor--> ProductVtx (id = 'p1') into table PT`,
		// No selectivity: full sweep of an edge type.
		"unselective": `select y.id from graph ReviewVtx ( ) --reviewer--> def y: PersonVtx ( ) into table PT`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecScript(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: parallel frontier scaling ---

// Unanchored feature-similarity self-join (Q2 without the product
// filter): ~10^5 bindings at sf 5, sharded across workers by the first
// step's candidate set.
const workersQuery = `
select y.id from graph
ProductVtx ( ) --feature--> FeatureVtx ( ) <--feature-- def y: ProductVtx ( )
into table WT`

func BenchmarkWorkers(b *testing.B) {
	params := suiteParams(b)
	for _, w := range []int{1, 2, 4, 8} {
		e := berlinEngine(b, 5, w, true)
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecScript(workersQuery, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: simulated cluster scaling ---

func BenchmarkCluster(b *testing.B) {
	e := berlinEngine(b, 5, 0, true)
	g := e.Cat.Graph()
	review := g.EdgeType("reviewFor")
	reviewer := g.EdgeType("reviewer")
	steps := []cluster.Step{
		{Edge: review, Forward: false},  // Product ← Review (reverse)
		{Edge: reviewer, Forward: true}, // Review → Person
	}
	_ = steps
	for _, parts := range []int{1, 2, 4, 8} {
		c, err := cluster.NewWithStrategy(g, parts, cluster.Hash)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			var last cluster.Stats
			for i := 0; i < b.N; i++ {
				_, stats, err := c.Traverse(g.VertexType("ProductVtx"), nil, []cluster.Step{
					{Edge: review, Forward: false},
					{Edge: reviewer, Forward: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = stats
			}
			b.ReportMetric(float64(last.Messages), "msgs/query")
			b.ReportMetric(float64(last.VerticesSent), "verts-sent/query")
		})
	}
}

// --- E8: path-regular-expression cost ---

func BenchmarkRegexPath(b *testing.B) {
	e := berlinEngine(b, 5, 0, true)
	for _, quant := range []string{"{1}", "{2}", "{4}", "+", "*"} {
		q := fmt.Sprintf(`select distinct a.id from graph
ProductVtx ( ) --type--> TypeVtx ( ) ( --subclass--> [ ] )%s def a: TypeVtx ( )
into table RT`, quant)
		b.Run("closure="+quant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecScript(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: binary IR codec ---

func BenchmarkIR(b *testing.B) {
	script, err := parser.Parse(bsbm.FullDDL + bsbm.Q1.Script + bsbm.Q2.Script)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := ir.Encode(script)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ir.Encode(script); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "ir-bytes")
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ir.Decode(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E11: concurrent query throughput ---

// BenchmarkThroughput drives the Berlin query mix from N concurrent
// client goroutines against one engine — the paper's stated goal is to
// "minimize per query processing time and maximize throughput" (§I).
func BenchmarkThroughput(b *testing.B) {
	e := berlinEngine(b, 5, 1, true) // 1 worker per query; parallelism across clients
	params := suiteParams(b)
	mix := []string{bsbm.Q2.Script, bsbm.Q3.Script, bsbm.Q4.Script, bsbm.Q5.Script}
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var wg sync.WaitGroup
			queries := make(chan string, b.N)
			for i := 0; i < b.N; i++ {
				queries <- mix[i%len(mix)]
			}
			close(queries)
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := range queries {
						if _, err := e.ExecScript(q, params); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// --- E10: many-to-one view build, distinct-ratio sweep ---

func BenchmarkManyToOne(b *testing.B) {
	const rows = 100_000
	for _, distinct := range []int{10, 1000, 100_000} {
		tb := table.MustNew("T", table.Schema{
			{Name: "id", Type: value.Int},
			{Name: "grp", Type: value.Int},
		})
		for i := 0; i < rows; i++ {
			if err := tb.AppendRow([]value.Value{
				value.NewInt(int64(i)), value.NewInt(int64(i % distinct)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vt, err := graph.BuildVertexType(0, "G", tb, []int{1}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if vt.Count() != distinct {
					b.Fatalf("count = %d", vt.Count())
				}
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// --- E18: table-space selects through typed kernels ---

// BenchmarkRelOps runs the four table-space selects of the rel_ops
// workload (bench/w_pass.go) as prepared statements over Berlin SF20.
func BenchmarkRelOps(b *testing.B) {
	e := berlinEngine(b, 20, 0, true)
	params := map[string]value.Value{
		"MinRating": value.NewInt(5), "MaxDays": value.NewInt(4), "MaxPrice": value.NewFloat(4000),
		"From": value.DateFromYMD(2006, 6, 1), "R3": value.NewInt(5), "R4": value.NewInt(5),
	}
	for _, q := range []struct{ name, script string }{
		{"rq1", `select top 10 reviewFor, avg(ratings_1) as avgRating, count(*) as n
from table Reviews where ratings_2 >= %MinRating%
group by reviewFor order by avgRating desc, n desc, reviewFor asc`},
		{"rq2", `select top 20 id, price, deliveryDays from table Offers
where deliveryDays <= %MaxDays% and price < %MaxPrice% and validFrom >= %From%
order by price asc, id asc`},
		{"rq3", `select vendor, min(price) as lo, max(price) as hi, count(*) as n
from table Offers group by vendor order by vendor asc`},
		{"rq4", `select distinct reviewer from table Reviews where ratings_3 = %R3% and ratings_4 >= %R4%`},
	} {
		h, err := e.Prepare(q.script)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecPrepared(h, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
