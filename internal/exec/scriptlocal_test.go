package exec

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graql/internal/bsbm"
	"graql/internal/value"
)

// TestIntoResultCrossTalk runs one prepared BQ6 handle from two goroutines
// on one engine, one with Country1 = US and one with DE. BQ6 writes its
// distinct reviewers into table T6 and counts them from table T6; every
// count must be the one its own country's T6 holds, never the other
// script's (DESIGN.md §10: a result belongs to its script).
func TestIntoResultCrossTalk(t *testing.T) {
	total := 40000
	if raceEnabled {
		total = 2000
	}
	opts := DefaultOptions()
	opts.Workers = 1
	opts.FileOpener = memFS(bsbm.Generate(bsbm.Config{ScaleFactor: 10, Seed: 42}).Files)
	e := New(opts)
	mustExec(t, e, bsbm.FullDDL, nil)
	p, err := e.Prepare(bsbm.Q6.Script)
	if err != nil {
		t.Fatal(err)
	}
	countries := []string{"US", "DE"}
	want := map[string]int64{}
	for _, c := range countries {
		res, err := e.ExecPrepared(p, map[string]value.Value{"Country1": value.NewString(c)})
		if err != nil {
			t.Fatal(err)
		}
		want[c] = res[1].Table.Value(0, 0).Int()
	}
	if want["US"] == want["DE"] {
		t.Fatalf("both countries count %d reviewers; the test cannot tell them apart", want["US"])
	}
	var wrong, failed atomic.Int64
	var wg sync.WaitGroup
	for _, c := range countries {
		wg.Add(1)
		go func(c string) {
			defer wg.Done()
			params := map[string]value.Value{"Country1": value.NewString(c)}
			for i := 0; i < total/len(countries); i++ {
				res, err := e.ExecPrepared(p, params)
				if err != nil {
					failed.Add(1)
					continue
				}
				if res[1].Table.Value(0, 0).Int() != want[c] {
					wrong.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if wrong.Load() != 0 || failed.Load() != 0 {
		t.Fatalf("%d of %d scripts counted another script's T6, %d failed", wrong.Load(), total, failed.Load())
	}
}

// TestNearestProducer: a script that writes table T and subgraph S twice
// reads each after each write, and every reader must see the nearest
// earlier producer's result. The second pass runs with the first pass's
// results published under the same names.
func TestNearestProducer(t *testing.T) {
	const src = `
select id from table TA where n < 2 into table T
select count(*) as c from table T
select * from graph A (n = 0) into subgraph S
select y.id from graph S.A ( ) --e--> def y: B ( ) into table U
select count(*) as c from table U
select id from table TA into table T
select count(*) as c from table T
select * from graph A (n = 1) into subgraph S
select y.id from graph S.A ( ) --e--> def y: B ( ) into table U
select count(*) as c from table U
output table T out.csv
`
	// (statement index, want): a0 has three e edges, a1 one.
	want := []struct {
		at int
		n  int64
	}{{1, 2}, {4, 3}, {6, 4}, {9, 1}}
	e := semaEngine(t)
	var written strings.Builder
	e.Opts.FileCreator = func(string) (io.WriteCloser, error) { return nopWriteCloser{&written}, nil }
	for _, run := range []struct {
		name string
		exec func(string, map[string]value.Value) ([]Result, error)
	}{{"ExecScript", e.ExecScript}} {
		for pass := 0; pass < 2; pass++ {
			written.Reset()
			res, err := run.exec(src, nil)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			for _, w := range want {
				if got := res[w.at].Table.Value(0, 0).Int(); got != w.n {
					t.Errorf("%s pass %d: statement %d counts %d, want %d", run.name, pass, w.at+1, got, w.n)
				}
			}
			if lines := strings.Count(written.String(), "\n"); lines != 5 {
				t.Errorf("%s pass %d: output wrote %d lines of T, want a header and 4 rows", run.name, pass, lines)
			}
		}
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// TestBerlinMixReusesPlans: 100 passes of the prepared Berlin suite —
// every query a select into a result and, but for BQ7, a select from it —
// serve at least 99 % of their selects from the stored plan. Only the
// first pass analyzes.
func TestBerlinMixReusesPlans(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	opts.FileOpener = memFS(bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42}).Files)
	e := New(opts)
	mustExec(t, e, bsbm.FullDDL, nil)
	params, err := bsbm.TypedParams(bsbm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var suite []*Prepared
	for _, q := range bsbm.Suite {
		p, err := e.Prepare(q.Script)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, p)
	}
	hits0, misses0, _, _ := e.PlanCacheStats()
	for pass := 0; pass < 100; pass++ {
		for _, p := range suite {
			if _, err := e.ExecPrepared(p, params); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses, _, _ := e.PlanCacheStats()
	hits, misses = hits-hits0, misses-misses0
	if ratio := float64(hits) / float64(hits+misses); ratio < 0.99 {
		t.Fatalf("plan slot hits %d of %d selects (%.3f), want ≥ 0.99", hits, hits+misses, ratio)
	}
}
