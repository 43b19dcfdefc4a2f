package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"graql/internal/bsbm"
	"graql/internal/exec"
	"graql/internal/value"
)

// bi_graph and rel_ops share one form: an op is one pass over the
// workload's prepared shapes, in-process, with one pooled parameter set.

type passInstance struct {
	db      *berlinDB
	shapes  []shape
	pool    []paramSet
	typed   []map[string]value.Value
	handles []*exec.Prepared
	want    [][]uint64 // [set][shape]
	// tableProbes adds the direct table/expr operator calls (rel_ops).
	tableProbes bool
	// resultRows counts the rows of each shape's final statement, the
	// base of exec.rows_scanned_per_result.
	resultRows atomic.Int64
}

// biGraphSF and relOpsSF are the Berlin scale factors (200 products per
// unit). bi_graph is sized so three set-ups and a 10 s window fit the
// driver's time budget; at SF60 the graph has 130k vertices and 312k
// edges and a pass takes about 10 ms.
const (
	biGraphSF = 60
	relOpsSF  = 20
)

func bsbmShapes() []shape {
	// Whether each statement's output is totally ordered: the first
	// statement of every query materialises an unordered table; BQ4's
	// final order (price) admits ties, BQ7 yields a subgraph.
	ordered := map[string][]bool{
		"BQ1": {false, true}, "BQ2": {false, true}, "BQ3": {false, true}, "BQ4": {false, false},
		"BQ5": {false, true}, "BQ6": {false, true}, "BQ7": {false}, "BQ8": {false, true},
	}
	out := make([]shape, len(bsbm.Suite))
	for i, q := range bsbm.Suite {
		out[i] = shape{name: strings.ToLower(q.ID), script: q.Script, ordered: ordered[q.ID]}
	}
	return out
}

func setupBiGraph(cfg setupConfig) (instance, error) {
	db, err := openBerlin(berlinScale(biGraphSF, cfg.smoke), cfg)
	if err != nil {
		return nil, err
	}
	products, producers, _, types, _, _, _, _ := db.cfg.Counts()
	in := &passInstance{db: db, shapes: bsbmShapes()}
	c1, c2, lo, price := db.strata(), db.strata(), db.strata(), db.strata()
	for i := 0; i < poolSize; i++ {
		in.pool = append(in.pool, paramSet{
			"Country1":  country(c1[i]),
			"Country2":  country(c2[i]),
			"Product1":  db.id("p", products),
			"Type1":     db.id("t", types),
			"Producer1": db.id("m", producers),
			"Lower":     {"integer", fmt.Sprint(int(spread(lo[i], 0, 2000)))},
			"MaxPrice":  {"float", fmt.Sprintf("%.2f", spread(price[i], 500, 10000))},
		})
	}
	return in, in.prepare()
}

func relOpsShapes() []shape {
	return []shape{
		{name: "rq1", ordered: []bool{true}, script: `
select top 10 reviewFor, avg(ratings_1) as avgRating, count(*) as n
from table Reviews where ratings_2 >= %MinRating%
group by reviewFor order by avgRating desc, n desc, reviewFor asc`},
		{name: "rq2", ordered: []bool{true}, script: `
select top 20 id, price, deliveryDays
from table Offers
where deliveryDays <= %MaxDays% and price < %MaxPrice% and validFrom >= %From%
order by price asc, id asc`},
		{name: "rq3", ordered: []bool{true}, script: `
select vendor, min(price) as lo, max(price) as hi, count(*) as n
from table Offers group by vendor order by vendor asc`},
		{name: "rq4", ordered: []bool{false}, script: `
select distinct reviewer from table Reviews where ratings_3 = %R3% and ratings_4 >= %R4%`},
	}
}

func setupRelOps(cfg setupConfig) (instance, error) {
	db, err := openBerlin(berlinScale(relOpsSF, cfg.smoke), cfg)
	if err != nil {
		return nil, err
	}
	in := &passInstance{db: db, shapes: relOpsShapes(), tableProbes: true}
	rating, days, price, from, r3, r4 := db.strata(), db.strata(), db.strata(), db.strata(), db.strata(), db.strata()
	for i := 0; i < poolSize; i++ {
		in.pool = append(in.pool, paramSet{
			"MinRating": {"integer", fmt.Sprint(2 + rating[i]%7)},
			"MaxDays":   {"integer", fmt.Sprint(2 + days[i]%6)},
			"MaxPrice":  {"float", fmt.Sprintf("%.2f", spread(price[i], 1000, 7000))},
			"From":      {"date", fmt.Sprintf("%04d-%02d-01", 2006+from[i]%24/12, 1+from[i]%12)},
			"R3":        {"integer", fmt.Sprint(1 + r3[i]%10)},
			"R4":        {"integer", fmt.Sprint(3 + r4[i]%6)},
		})
	}
	return in, in.prepare()
}

func (in *passInstance) prepare() error {
	for _, s := range in.shapes {
		h, err := in.db.eng.Prepare(s.script)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", s.name, err)
		}
		in.handles = append(in.handles, h)
	}
	for _, ps := range in.pool {
		t, err := ps.typed()
		if err != nil {
			return err
		}
		in.typed = append(in.typed, t)
	}
	return nil
}

func (in *passInstance) clients() int { return 1 }

func (in *passInstance) oracle() error {
	o := oracleEngine(in.db.eng)
	in.want = make([][]uint64, len(in.pool))
	for i, ps := range in.pool {
		in.want[i] = make([]uint64, len(in.shapes))
		for k, s := range in.shapes {
			d, err := expect(o, s, ps)
			if err != nil {
				return err
			}
			in.want[i][k] = d
		}
	}
	return nil
}

type passClient struct {
	in  *passInstance
	rng *rand.Rand
	rs  [][]exec.Result
}

func (in *passInstance) newClient(c int) (client, error) {
	return &passClient{in: in, rng: seqRNG(in.db.cfg.Seed, c), rs: make([][]exec.Result, len(in.shapes))}, nil
}

func (c *passClient) close() {}

func (c *passClient) do(op int64, tr *tracer, parent int) (time.Duration, error) {
	in := c.in
	set := c.rng.Intn(len(in.pool))
	var lat time.Duration
	for k, h := range in.handles {
		sp := tr.begin("exec."+in.shapes[k].name, parent, op)
		t0 := time.Now()
		rs, err := in.db.eng.ExecPrepared(h, in.typed[set])
		lat += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", in.shapes[k].name, err)
		}
		c.rs[k] = rs
		if last := rs[len(rs)-1]; last.Kind == exec.ResultTable {
			in.resultRows.Add(int64(last.Table.NumRows()))
		}
	}
	sp := tr.begin("bench.check", parent, op)
	defer tr.end(sp)
	for k, s := range in.shapes {
		if got := digestResults(c.rs[k], s.ordered); got != in.want[set][k] {
			return lat, mismatch(fmt.Sprintf("%s set %d", s.name, set), got, in.want[set][k])
		}
	}
	return lat, nil
}

func (in *passInstance) counters() map[string]float64 {
	c := in.db.counters()
	c["result_rows"] = float64(in.resultRows.Load())
	return c
}

func (in *passInstance) finish(*layerCtx) error { return nil }
func (in *passInstance) close()                 {}

func (in *passInstance) layers(lc *layerCtx) error {
	// The op is itself an in-process ExecPrepared pass.
	for _, s := range in.shapes {
		p50 := lc.spanP50("exec." + s.name)
		lc.m["exec."+s.name+"_p50_us"] = p50
		lc.m["exec.execute_us"] += p50
	}
	if err := berlinLayers(lc, in.db, in.shapes, in.pool); err != nil {
		return err
	}
	if in.tableProbes {
		return tableLayers(lc, in.db)
	}
	return nil
}
