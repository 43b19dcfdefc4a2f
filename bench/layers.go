package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"graql/internal/ast"
	"graql/internal/bitmap"
	"graql/internal/bsbm"
	"graql/internal/exec"
	"graql/internal/expr"
	"graql/internal/ir"
	"graql/internal/lexer"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// The probes below are the benchmark's own calls into each layer's
// public functions, made after the traced window on the workload's own
// statements and data. They add nothing inside the program.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// stmtText is one statement of a workload with the parameters that bind
// it, rendered canonically (ast String() re-parses to the same tree).
type stmtText struct {
	text   string
	params map[string]value.Value
	into   bool // registers a result later statements read
	graph  bool // selects from graph
}

// statements splits every shape's script into statements.
func statements(shapes []shape, ps paramSet) ([]stmtText, error) {
	typed, err := ps.typed()
	if err != nil {
		return nil, err
	}
	var out []stmtText
	for _, s := range shapes {
		script, err := parser.Parse(s.script)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		for _, st := range script.Stmts {
			sel, isSel := st.(*ast.Select)
			out = append(out, stmtText{
				text: st.String(), params: typed,
				into:  isSel && sel.Into.Kind != ast.IntoNone,
				graph: isSel && sel.Graph != nil,
			})
		}
	}
	return out, nil
}

// frontEndLayers prices lexer, parser, sema, planner, fingerprint,
// prepare and the IR codec on the given statements, one statement per
// call, and reports the mean over statements of the per-statement
// medians.
func frontEndLayers(lc *layerCtx, eng *exec.Engine, stmts []stmtText) error {
	const samples, batch = 15, 8
	var lexT, parseT, semaT, explainT, fpT, prepT, encT, decT time.Duration
	var tokens, irBytes, prepared int
	var allocs uint64
	for _, s := range stmts {
		src := s.text
		toks, err := lexer.Lex(src)
		if err != nil {
			return err
		}
		tokens += len(toks)
		lexD := timeBatched(samples, batch, func() { t, _ := lexer.Lex(src); sink += len(t) })
		lexT += lexD
		script, err := parser.Parse(src)
		if err != nil {
			return err
		}
		parseD := timeBatched(samples, batch, func() { p, _ := parser.Parse(src); sink += len(p.Stmts) })
		if parseD > lexD {
			parseT += parseD - lexD
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < batch; i++ {
			p, _ := parser.Parse(src)
			sink += len(p.Stmts)
		}
		runtime.ReadMemStats(&m1)
		allocs += (m1.Mallocs - m0.Mallocs) / batch

		st := script.Stmts[0]
		an := &sema.Analyzer{Cat: eng.Cat}
		eng.Cat.RLock()
		_, aerr := an.Analyze(st)
		semaD := timeBatched(samples, batch, func() {
			if _, err := an.Analyze(st); err != nil {
				sink++
			}
		})
		eng.Cat.RUnlock()
		if aerr != nil {
			return fmt.Errorf("analyze %q: %w", src, aerr)
		}
		semaT += semaD

		if _, ok := st.(*ast.Select); ok {
			explain := "explain " + src
			if _, err := eng.ExecScript(explain, s.params); err != nil {
				return fmt.Errorf("%s: %w", explain, err)
			}
			d := timeBatched(samples, batch, func() {
				rs, _ := eng.ExecScript(explain, s.params)
				sink += len(rs)
			})
			if rest := d - parseD - semaD; rest > 0 {
				explainT += rest
			}
		}

		fpT += timeBatched(samples, 64, func() { fp, _ := obs.Fingerprint(src); sink += int(fp & 1) })

		blob, err := ir.Encode(script)
		if err != nil {
			return err
		}
		irBytes += len(blob)
		encT += timeBatched(samples, batch, func() { b, _ := ir.Encode(script); sink += len(b) })
		decT += timeBatched(samples, batch, func() { d, _ := ir.Decode(blob); sink += len(d.Stmts) })
		if !s.into {
			// Prepare analyzes read-only scripts eagerly; a statement
			// that registers a result defers that, so it is left out.
			prepared++
			prepT += timeBatched(samples, batch, func() {
				if _, err := eng.Prepare(src); err != nil {
					sink++
				}
			})
		}
	}
	n := float64(len(stmts))
	lc.m["lexer.lex_us"] = us(lexT) / n
	lc.m["lexer.tokens_per_stmt"] = float64(tokens) / n
	lc.m["parser.parse_us"] = us(parseT) / n
	lc.m["parser.allocs_per_stmt"] = float64(allocs) / n
	lc.m["sema.analyze_us"] = us(semaT) / n
	lc.m["exec.plan_us"] = us(explainT) / n
	lc.m["obs.fingerprint_ns"] = float64(fpT.Nanoseconds()) / n
	if prepared > 0 {
		lc.m["exec.prepare_us"] = us(prepT) / float64(prepared)
	}
	lc.m["ir.encode_us"] = us(encT) / n
	lc.m["ir.decode_us"] = us(decT) / n
	lc.m["ir.bytes_per_stmt"] = float64(irBytes) / n
	if looked := lc.delta("plan_hits") + lc.delta("plan_misses"); looked > 0 {
		lc.m["exec.plancache_hit_ratio"] = lc.delta("plan_hits") / looked
	}
	return nil
}

// relationalStep reports whether an EXPLAIN ANALYZE row is one of the
// relational operators applied to a table or to the output of pattern
// matching. Their times are wall times of sequential steps; the
// matcher's own rows are inclusive of nested steps and summed across
// workers, so they are not added up here.
func relationalStep(action string) bool {
	switch action {
	case "filter", "group", "sort", "top", "distinct", "project":
		return true
	}
	return false
}

// explainAnalyzeLayers splits one pass of the op's statements with
// EXPLAIN ANALYZE: exec.relops_us is the time of the relational
// operator rows, exec.match_us the wall time of the graph statements
// (their result row) less their relational operators. Both are averaged
// over a few parameter sets.
func explainAnalyzeLayers(lc *layerCtx, eng *exec.Engine, shapes []shape, pool []paramSet) error {
	const sets = 4
	var match, relops float64
	n := 0
	for i := 0; i < sets && i < len(pool); i++ {
		stmts, err := statements(shapes, pool[i])
		if err != nil {
			return err
		}
		for _, s := range stmts {
			rs, err := eng.ExecScript("explain analyze "+s.text, s.params)
			if err != nil {
				return fmt.Errorf("explain analyze %s: %w", s.text, err)
			}
			t := rs[0].Table
			var wall, rel float64
			for row := uint32(0); row < uint32(t.NumRows()); row++ {
				switch action := t.Value(row, 1).Str(); {
				case action == "result":
					wall = float64(t.Value(row, 5).Int())
				case relationalStep(action):
					rel += float64(t.Value(row, 5).Int())
				}
			}
			relops += rel
			if s.graph && wall > rel {
				match += wall - rel
			}
			if s.into {
				// EXPLAIN ANALYZE registers nothing; the next statement
				// of the script reads this one's result.
				if _, err := eng.ExecScript(s.text, s.params); err != nil {
					return err
				}
			}
		}
		n++
	}
	lc.m["exec.match_us"] = match / float64(n)
	lc.m["exec.relops_us"] = relops / float64(n)
	return nil
}

// berlinLayers fills the ledger entries every Berlin workload shares.
func berlinLayers(lc *layerCtx, db *berlinDB, shapes []shape, pool []paramSet) error {
	lc.m["bsbm.generate_ms"] = ms(lc.phases["generate"])
	if err := loadLayers(lc, db.cfg); err != nil {
		return err
	}
	stmts, err := statements(shapes, pool[0])
	if err != nil {
		return err
	}
	if err := frontEndLayers(lc, db.eng, stmts); err != nil {
		return err
	}
	if err := explainAnalyzeLayers(lc, db.eng, shapes, pool); err != nil {
		return err
	}
	lc.m["exec.edges_traversed_per_op"] = lc.perOp("edges")
	lc.m["exec.parallel_sweeps_per_op"] = lc.perOp("sweeps")
	if rows := lc.after["result_rows"] - lc.before["result_rows"]; rows > 0 {
		lc.m["exec.rows_scanned_per_result"] = lc.delta("rows") / rows
	}
	graphLayers(lc, db)
	return nil
}

// loadLayers re-loads the dataset the slow way round — tables first,
// views afterwards — to price CSV ingest and view building apart.
func loadLayers(lc *layerCtx, cfg bsbm.Config) error {
	ds := bsbm.Generate(cfg)
	opts := exec.DefaultOptions()
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(ds.Files[path])), nil
	}
	eng := exec.New(opts)
	if _, err := eng.ExecScript(bsbm.SchemaDDL, nil); err != nil {
		return err
	}
	rows := 0
	t0 := time.Now()
	if _, err := eng.ExecScript(bsbm.IngestDDL, nil); err != nil {
		return err
	}
	load := time.Since(t0)
	for _, t := range eng.Cat.Tables() {
		rows += t.NumRows()
	}
	lc.m["table.loadcsv_ns_per_row"] = float64(load.Nanoseconds()) / float64(rows)
	ds = nil
	eng.Opts.FileOpener = nil
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	if _, err := eng.ExecScript(bsbm.ViewDDL+bsbm.CountryViewDDL, nil); err != nil {
		return err
	}
	lc.m["graph.build_ms"] = ms(time.Since(t0))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if edges := eng.Cat.Graph().NumEdges(); edges > 0 && m1.HeapAlloc > m0.HeapAlloc {
		lc.m["graph.bytes_per_edge"] = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(edges)
	}
	runtime.KeepAlive(eng)
	return nil
}

// graphLayers prices the CSR sweep and the bitmap kernels the matcher
// is built from.
func graphLayers(lc *layerCtx, db *berlinDB) {
	et := db.eng.Cat.Graph().EdgeType("reviewFor")
	rev, ok := et.Reverse()
	if !ok {
		rev = et.Forward()
	}
	n := uint32(et.Dst.Count())
	sweep := timeBatched(9, 1, func() {
		for v := uint32(0); v < n; v++ {
			nbr, _ := rev.Neighbors(v)
			for _, u := range nbr {
				sink += int(u & 1)
			}
		}
	})
	lc.m["graph.neighbors_ns_per_edge"] = float64(sweep.Nanoseconds()) / float64(rev.NumEdges())

	const bits = 1 << 20
	a, b := bitmap.New(bits), bitmap.New(bits)
	for i := uint32(0); i < bits; i += 3 {
		a.Set(i)
	}
	for i := uint32(0); i < bits; i += 5 {
		b.Set(i)
	}
	and := timeBatched(15, 16, func() { a.And(b) })
	lc.m["bitmap.and_ns_per_kword"] = float64(and.Nanoseconds()) / (bits / 64 / 1000.0)
	each := timeBatched(9, 1, func() { b.ForEach(func(i uint32) { sink += int(i & 1) }) })
	lc.m["bitmap.foreach_ns_per_bit"] = float64(each.Nanoseconds()) / float64(b.Count())
}

// colEnv evaluates resolved refs against one table row.
type colEnv struct {
	t   *table.Table
	row uint32
}

func (e colEnv) Lookup(_, col int) value.Value { return e.t.Value(e.row, col) }

// tableLayers calls the relational operators directly on the loaded
// Reviews, Offers and Products tables.
func tableLayers(lc *layerCtx, db *berlinDB) error {
	cat := db.eng.Cat
	cat.RLock()
	defer cat.RUnlock()
	reviews, offers, products := cat.Table("Reviews"), cat.Table("Offers"), cat.Table("Products")
	if reviews == nil || offers == nil || products == nil {
		return fmt.Errorf("Berlin tables missing")
	}
	col := func(t *table.Table, name string) int { return t.Schema().Index(name) }
	perRow := func(d time.Duration, t *table.Table) float64 { return float64(d.Nanoseconds()) / float64(t.NumRows()) }

	r2 := col(reviews, "ratings_2")
	pred := func(row uint32) (bool, error) { return reviews.Value(row, r2).Int() >= 5, nil }
	lc.m["table.filter_ns_per_row"] = perRow(timeBatched(9, 1, func() {
		idx, _ := table.FilterIdx(reviews, pred)
		sink += len(idx)
	}), reviews)

	keys := []int{col(reviews, "reviewFor")}
	aggs := []table.AggSpec{{Func: table.AggAvg, Col: col(reviews, "ratings_1"), Name: "a"}, {Func: table.AggCount, Col: -1, Name: "n"}}
	groupSerial := timeBatched(9, 1, func() {
		g, _ := table.GroupBy(reviews, "G", keys, aggs)
		sink += g.NumRows()
	})
	lc.m["table.groupby_ns_per_row"] = perRow(groupSerial, reviews)

	sortKeys := []table.SortKey{{Col: col(offers, "price")}, {Col: col(offers, "id")}}
	orderSerial := timeBatched(9, 1, func() {
		o, _ := table.OrderBy(offers, sortKeys)
		sink += o.NumRows()
	})
	lc.m["table.orderby_ns_per_row"] = perRow(orderSerial, offers)

	lc.m["table.distinct_ns_per_row"] = perRow(timeBatched(9, 1, func() {
		sink += table.Distinct(reviews, []int{col(reviews, "reviewer")}).NumRows()
	}), reviews)

	lc.m["table.hashjoin_ns_per_row"] = perRow(timeBatched(9, 1, func() {
		l, _ := table.HashJoinIdx(reviews, products, []int{col(reviews, "reviewFor")}, []int{col(products, "id")})
		sink += len(l)
	}), reviews)

	// The parallel operators at the engine's default worker count, with
	// the threshold forced down so they engage at any scale.
	par := table.Par{Workers: runtime.GOMAXPROCS(0), Threshold: 1}
	groupPar := timeBatched(9, 1, func() {
		g, _ := table.GroupByPar(reviews, "G", keys, aggs, par)
		sink += g.NumRows()
	})
	orderPar := timeBatched(9, 1, func() {
		o, _ := table.OrderByPar(offers, sortKeys, par)
		sink += o.NumRows()
	})
	lc.m["table.groupby_par_ratio"] = float64(groupPar) / float64(groupSerial)
	lc.m["table.orderby_par_ratio"] = float64(orderPar) / float64(orderSerial)

	// ratings_2 >= 5 and ratings_3 < 9, as the planner would resolve it.
	ref := func(c int) *expr.Ref {
		return &expr.Ref{Name: reviews.Schema()[c].Name, Source: 0, Col: c, Typ: value.Int}
	}
	cond := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGe, ref(r2), expr.NewConst(value.NewInt(5))),
		expr.NewBinary(expr.OpLt, ref(col(reviews, "ratings_3")), expr.NewConst(value.NewInt(9))))
	rows := uint32(reviews.NumRows())
	lc.m["expr.eval_ns_per_row"] = perRow(timeBatched(9, 1, func() {
		for row := uint32(0); row < rows; row++ {
			v, _ := cond.Eval(colEnv{reviews, row})
			sink += int(v.I)
		}
	}), reviews)
	return nil
}
