package bsbm

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"graql/internal/exec"
	"graql/internal/parser"
)

// engineFor loads a generated dataset into a fresh engine.
func engineFor(t testing.TB, cfg Config) *exec.Engine {
	t.Helper()
	ds := Generate(cfg)
	opts := exec.DefaultOptions()
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		body, ok := ds.Files[path]
		if !ok {
			return nil, fmt.Errorf("bsbm: no generated file %s", path)
		}
		return io.NopCloser(strings.NewReader(body)), nil
	}
	e := exec.New(opts)
	if _, err := e.ExecScript(FullDDL, nil); err != nil {
		t.Fatalf("Berlin setup failed: %v", err)
	}
	return e
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{ScaleFactor: 1, Seed: 7})
	b := Generate(Config{ScaleFactor: 1, Seed: 7})
	for name, body := range a.Files {
		if b.Files[name] != body {
			t.Errorf("file %s differs between runs with the same seed", name)
		}
	}
	c := Generate(Config{ScaleFactor: 1, Seed: 8})
	if c.Files["products.csv"] == a.Files["products.csv"] {
		t.Error("different seeds produced identical products.csv")
	}
}

func TestBerlinSetupCounts(t *testing.T) {
	cfg := Config{ScaleFactor: 1, Seed: 42}
	e := engineFor(t, cfg)
	g := e.Cat.Graph()
	nProducts, nProducers, _, nTypes, _, nOffers, _, nReviews := cfg.Counts()

	checks := []struct {
		vtx  string
		want int
	}{
		{"ProductVtx", nProducts},
		{"ProducerVtx", nProducers},
		{"TypeVtx", nTypes},
		{"OfferVtx", nOffers},
		{"ReviewVtx", nReviews},
	}
	for _, c := range checks {
		vt := g.VertexType(c.vtx)
		if vt == nil {
			t.Fatalf("missing vertex type %s", c.vtx)
		}
		if vt.Count() != c.want {
			t.Errorf("%s count = %d, want %d", c.vtx, vt.Count(), c.want)
		}
	}
	// Every paper edge type exists and is populated.
	for _, en := range []string{"subclass", "producer", "type", "feature", "product", "vendor", "reviewFor", "reviewer", "export"} {
		et := g.EdgeType(en)
		if et == nil {
			t.Fatalf("missing edge type %s", en)
		}
		if et.Count() == 0 {
			t.Errorf("edge type %s is empty", en)
		}
		if err := et.Validate(); err != nil {
			t.Errorf("edge %s: %v", en, err)
		}
	}
	// Country views are many-to-one with ≤ len(Countries) instances.
	pc := g.VertexType("ProducerCountry")
	if pc.OneToOne {
		t.Error("ProducerCountry should be many-to-one")
	}
	if pc.Count() > len(Countries) {
		t.Errorf("ProducerCountry count = %d > %d countries", pc.Count(), len(Countries))
	}
}

// TestSuiteRuns executes every query of the suite at two scales and
// checks results are non-empty (the generator's shape guarantees).
func TestSuiteRuns(t *testing.T) {
	for _, sf := range []int{1, 3} {
		t.Run(fmt.Sprintf("sf=%d", sf), func(t *testing.T) { runSuite(t, sf) })
	}
}

func runSuite(t *testing.T, sf int) {
	e := engineFor(t, Config{ScaleFactor: sf, Seed: 42})
	params, err := TypedParams(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Suite {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			res, err := e.ExecScript(q.Script, params)
			if err != nil {
				t.Fatalf("%s failed: %v", q.ID, err)
			}
			last := res[len(res)-1]
			switch {
			case last.Table != nil:
				if last.Table.NumRows() == 0 {
					t.Errorf("%s returned no rows", q.ID)
				}
			case last.Subgraph != nil:
				if last.Subgraph.NumVertices() == 0 {
					t.Errorf("%s returned an empty subgraph", q.ID)
				}
			default:
				t.Errorf("%s returned no result", q.ID)
			}
		})
	}
}

// TestQ1CrossCheck recomputes Q1 with a direct in-memory join and compares
// against the engine's answer.
func TestQ1CrossCheck(t *testing.T) {
	cfg := Config{ScaleFactor: 1, Seed: 42}
	e := engineFor(t, cfg)
	params, _ := TypedParams(DefaultParams())
	res, err := e.ExecScript(Q1.Script, params)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	tb := res[len(res)-1].Table
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		got[tb.Value(r, 0).Str()] = tb.Value(r, 1).Int()
	}

	// Naive recomputation from the raw tables.
	cat := e.Cat
	persons := cat.Table("Persons")
	reviews := cat.Table("Reviews")
	products := cat.Table("Products")
	producers := cat.Table("Producers")
	ptypes := cat.Table("ProductTypes")

	personCountry := map[string]string{}
	for r := uint32(0); r < uint32(persons.NumRows()); r++ {
		personCountry[persons.Value(r, 0).Str()] = persons.Value(r, 4).Str()
	}
	producerCountry := map[string]string{}
	for r := uint32(0); r < uint32(producers.NumRows()); r++ {
		producerCountry[producers.Value(r, 0).Str()] = producers.Value(r, 5).Str()
	}
	productProducer := map[string]string{}
	for r := uint32(0); r < uint32(products.NumRows()); r++ {
		productProducer[products.Value(r, 0).Str()] = products.Value(r, 4).Str()
	}
	typesOf := map[string][]string{}
	for r := uint32(0); r < uint32(ptypes.NumRows()); r++ {
		p := ptypes.Value(r, 0).Str()
		typesOf[p] = append(typesOf[p], ptypes.Value(r, 1).Str())
	}
	want := map[string]int64{}
	for r := uint32(0); r < uint32(reviews.NumRows()); r++ {
		prod := reviews.Value(r, 2).Str()
		who := reviews.Value(r, 3).Str()
		if personCountry[who] != "DE" {
			continue
		}
		if producerCountry[productProducer[prod]] != "US" {
			continue
		}
		for _, ty := range typesOf[prod] {
			want[ty]++
		}
	}
	// Compare the engine's top-10 counts against the recomputation.
	for ty, n := range got {
		if want[ty] != n {
			t.Errorf("type %s: engine count %d, recomputed %d", ty, n, want[ty])
		}
	}
	if len(got) == 0 {
		t.Fatal("Q1 returned nothing")
	}
}

// TestQ8AncestorClosure cross-checks the subclass+ closure query against a
// direct transitive-ancestor walk over the Types table.
func TestQ8AncestorClosure(t *testing.T) {
	e := engineFor(t, Config{ScaleFactor: 1, Seed: 42})
	params, _ := TypedParams(DefaultParams())
	res, err := e.ExecScript(Q8.Script, params)
	if err != nil {
		t.Fatal(err)
	}
	tb := res[len(res)-1].Table
	got := map[string]bool{}
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		got[tb.Value(r, 0).Str()] = true
	}

	cat := e.Cat
	types := cat.Table("Types")
	parent := map[string]string{}
	for r := uint32(0); r < uint32(types.NumRows()); r++ {
		parent[types.Value(r, 0).Str()] = types.Value(r, 3).Str()
	}
	ptypes := cat.Table("ProductTypes")
	want := map[string]bool{}
	for r := uint32(0); r < uint32(ptypes.NumRows()); r++ {
		if ptypes.Value(r, 0).Str() != "p1" {
			continue
		}
		ty := ptypes.Value(r, 1).Str()
		for cur := parent[ty]; cur != ""; cur = parent[cur] {
			want[cur] = true
		}
	}
	if len(got) != len(want) {
		t.Errorf("ancestors: engine %d, recomputed %d (%v vs %v)", len(got), len(want), got, want)
	}
	for ty := range want {
		if !got[ty] {
			t.Errorf("missing ancestor %s", ty)
		}
	}
}

// parseInterval parses an est_rows rendering ("42", "0..1800", "0..inf")
// into numeric bounds.
func parseInterval(t *testing.T, s string) (lo, hi float64) {
	t.Helper()
	parse := func(p string) float64 {
		if p == "inf" {
			return math.Inf(1)
		}
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			t.Fatalf("bad est_rows %q: %v", s, err)
		}
		return f
	}
	if i := strings.Index(s, ".."); i >= 0 {
		return parse(s[:i]), parse(s[i+2:])
	}
	f := parse(s)
	return f, f
}

// TestEstimateBoundsContainActuals: the static cardinality bound EXPLAIN
// ANALYZE reports on the result row must contain the actual row count for
// every statement of every Berlin query — the bounds are conservative by
// construction, and this is the suite-wide soundness check. The bound is
// also the one EXPLAIN's last row carries: both come from one walk.
func TestEstimateBoundsContainActuals(t *testing.T) {
	e := engineFor(t, Config{ScaleFactor: 1, Seed: 42})
	params, err := TypedParams(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Suite {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			// Plain run first: it registers the intermediate into-tables
			// that later statements of the script read.
			if _, err := e.ExecScript(q.Script, params); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			script, err := parser.Parse(q.Script)
			if err != nil {
				t.Fatal(err)
			}
			for si, st := range script.Stmts {
				plan, err := e.ExecScript("explain "+st.String(), params)
				if err != nil {
					t.Fatalf("statement %d: %v", si+1, err)
				}
				pt := plan[0].Table
				last := pt.Value(uint32(pt.NumRows()-1), 3).Str()
				res, err := e.ExecScript("explain analyze "+st.String(), params)
				if err != nil {
					t.Fatalf("statement %d: %v", si+1, err)
				}
				tb := res[0].Table
				if tb == nil {
					t.Fatalf("statement %d: explain analyze returned no table", si+1)
				}
				found := false
				for r := uint32(0); r < uint32(tb.NumRows()); r++ {
					if tb.Value(r, 1).Str() != "result" {
						continue
					}
					found = true
					if est := tb.Value(r, 3).Str(); est != last {
						t.Errorf("statement %d: result est_rows %s, explain's last row %s", si+1, est, last)
					}
					lo, hi := parseInterval(t, tb.Value(r, 3).Str())
					rows := float64(tb.Value(r, 4).Int())
					if rows < lo || rows > hi {
						t.Errorf("statement %d: actual rows %v outside est_rows [%v, %v]", si+1, rows, lo, hi)
					}
				}
				if !found {
					t.Errorf("statement %d: no result row in the plan", si+1)
				}
			}
		})
	}
}
