package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"graql/internal/expr"
	"graql/internal/value"
)

// testPar grants w workers with the threshold floored so even tiny
// tables take the parallel path.
func testPar(w int) Par { return Par{Workers: w, Threshold: 1} }

// keyAtLeast is the predicate k >= n over randomTable's key column.
func keyAtLeast(n int64) expr.Expr {
	return expr.NewBinary(expr.OpGe, &expr.Ref{Source: 0, Col: 0}, expr.NewConst(value.NewInt(n)))
}

// TestParRun pins the one shard pool: it clamps its fan-out to the shard
// count, runs inline (no goroutine, shards in order) when one worker or
// one shard is all there is, and hands out no further shard once a shard
// or the poll hook has failed.
func TestParRun(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		name            string
		workers, shards int
		failShard       int // shard whose fn fails; -1 = none
		failPoll        int // poll call that fails (1-based); 0 = none
		wantWorkers     int // fan-out reported to OnParallel; 0 = hook must not fire
	}{
		{"no shards", 4, 0, -1, 0, 0},
		{"zero value is inline", 0, 5, -1, 0, 1},
		{"one worker is inline", 1, 5, -1, 0, 1},
		{"one shard is inline", 8, 1, -1, 0, 1},
		{"workers clamp to shards", 8, 3, -1, 0, 3},
		{"fan out", 3, 64, -1, 0, 3},
		{"inline stops at the failing shard", 1, 10, 4, 0, 1},
		{"inline stops at the failing poll", 1, 10, -1, 3, 1},
		{"pool stops after the failing shard", 4, 1000, 7, 0, 4},
		{"pool stops after the failing poll", 4, 1000, -1, 5, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ran, polls, active, peak, reported, done atomic.Int64
			order := make([]int, 0, c.shards) // appended by the inline path only
			failedShard := make(chan struct{})
			p := Par{
				Workers: c.workers,
				OnParallel: func(shards, workers int) func() {
					if shards != c.shards {
						t.Errorf("hook saw %d shards, want %d", shards, c.shards)
					}
					reported.Store(int64(workers))
					return func() { done.Add(1) }
				},
			}
			if c.failPoll > 0 {
				p.Poll = func() error {
					if polls.Add(1) >= int64(c.failPoll) {
						return boom
					}
					return nil
				}
			}
			err := p.Run(c.shards, func(s int) error {
				ran.Add(1)
				if n := active.Add(1); n > peak.Load() {
					peak.Store(n) // racy max is fine: it only ever under-reports
				}
				defer active.Add(-1)
				if c.wantWorkers == 1 {
					order = append(order, s)
				}
				switch {
				case s == c.failShard:
					close(failedShard)
					return boom
				case c.failShard >= 0 && s > c.failShard:
					// Held until the failure exists, then slow: the latch
					// falls long before the pool could drain 1000 of these.
					<-failedShard
					time.Sleep(time.Millisecond)
				}
				return nil
			})
			failing := c.failShard >= 0 || c.failPoll > 0
			if failing != errors.Is(err, boom) {
				t.Fatalf("err = %v, failing case = %v", err, failing)
			}
			if int(reported.Load()) != c.wantWorkers || (c.wantWorkers > 0) != (done.Load() == 1) {
				t.Errorf("hook reported %d workers (done called %d times), want %d", reported.Load(), done.Load(), c.wantWorkers)
			}
			if peak.Load() > int64(max(c.wantWorkers, 1)) {
				t.Errorf("%d shards ran at once on %d workers", peak.Load(), c.wantWorkers)
			}
			switch {
			case !failing:
				if int(ran.Load()) != c.shards {
					t.Errorf("ran %d of %d shards", ran.Load(), c.shards)
				}
			case c.wantWorkers == 1 && c.failShard >= 0:
				if int(ran.Load()) != c.failShard+1 {
					t.Errorf("inline ran %d shards past a failure at shard %d", ran.Load(), c.failShard)
				}
			case c.failPoll > 0:
				// The poll keeps failing, so no shard starts after it.
				if int(ran.Load()) >= c.failPoll {
					t.Errorf("ran %d shards, poll failed before shard %d", ran.Load(), c.failPoll-1)
				}
			default:
				// Every worker may finish the shard it holds; a few may
				// have passed their check just before the latch fell.
				if int(ran.Load()) > c.shards/2 {
					t.Errorf("pool ran %d of %d shards past a failure at shard %d", ran.Load(), c.shards, c.failShard)
				}
			}
			for i, s := range order {
				if s != i {
					t.Fatalf("inline shard order %v", order)
				}
			}
		})
	}
}

// randomTable builds a table with an int key column (with NULLs), a
// float measure (with NULLs), and a low-cardinality string column, for
// serial/parallel equivalence trials.
func randomTable(r *rand.Rand, rows int) *Table {
	tb := MustNew("T", Schema{
		{Name: "k", Type: value.Int},
		{Name: "f", Type: value.Float},
		{Name: "s", Type: value.Text},
	})
	for i := 0; i < rows; i++ {
		k := value.NewInt(int64(r.Intn(17)))
		if r.Intn(11) == 0 {
			k = value.NewNull(value.KindInt)
		}
		f := value.NewFloat(r.NormFloat64() * 100)
		if r.Intn(13) == 0 {
			f = value.NewNull(value.KindFloat)
		}
		s := value.NewString(fmt.Sprintf("g%d", r.Intn(5)))
		if err := tb.AppendRow([]value.Value{k, f, s}); err != nil {
			panic(err)
		}
	}
	return tb
}

// valuesClose compares two cells: exact for everything but floats,
// which tolerate the rounding drift of reordered summation.
func valuesClose(a, b value.Value) bool {
	if a.IsNull() != b.IsNull() || a.Kind() != b.Kind() {
		return false
	}
	if a.IsNull() {
		return true
	}
	if a.Kind() == value.KindFloat {
		fa, fb := a.Float(), b.Float()
		if fa == fb {
			return true
		}
		return math.Abs(fa-fb) <= 1e-9*math.Max(math.Abs(fa), math.Abs(fb))
	}
	return value.Equal(a, b)
}

// mustEqualTables fails unless a and b have identical schemas and the
// same rows in the same order (floats compared with tolerance).
func mustEqualTables(t *testing.T, what string, a, b *Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", what, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < a.NumCols(); c++ {
		if a.Schema()[c].Name != b.Schema()[c].Name {
			t.Fatalf("%s: column %d name %q vs %q", what, c, a.Schema()[c].Name, b.Schema()[c].Name)
		}
	}
	for r := uint32(0); r < uint32(a.NumRows()); r++ {
		for c := 0; c < a.NumCols(); c++ {
			if !valuesClose(a.Value(r, c), b.Value(r, c)) {
				t.Fatalf("%s: cell (%d,%d) = %v vs %v", what, r, c, a.Value(r, c), b.Value(r, c))
			}
		}
	}
}

// Property: parallel group-by emits the same groups, in the same
// first-occurrence order, with the same aggregates as the serial
// operator (float sums compared with tolerance).
func TestGroupByParEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	aggs := []AggSpec{
		{Func: AggCount, Col: -1, Name: "n"},
		{Func: AggCount, Col: 1, Name: "nf"},
		{Func: AggSum, Col: 1, Name: "sum"},
		{Func: AggAvg, Col: 1, Name: "avg"},
		{Func: AggMin, Col: 1, Name: "lo"},
		{Func: AggMax, Col: 1, Name: "hi"},
		{Func: AggSum, Col: 0, Name: "ksum"},
	}
	for trial := 0; trial < 20; trial++ {
		tb := randomTable(r, r.Intn(5000))
		for _, keys := range [][]int{{0}, {2, 0}, nil} {
			want, err := GroupBy(tb, "G", keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 5} {
				got, err := GroupByPar(tb, "G", keys, aggs, testPar(w))
				if err != nil {
					t.Fatal(err)
				}
				mustEqualTables(t, fmt.Sprintf("trial %d keys %v w=%d", trial, keys, w), want, got)
			}
		}
	}
}

// Property: the parallel sort is order-equivalent to the serial stable
// sort — identical row sequences, including tie order.
func TestOrderByParEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	keySets := [][]SortKey{
		{{Col: 2}, {Col: 0, Desc: true}},
		{{Col: 1}},
		{{Col: 0, Desc: true}},
	}
	for trial := 0; trial < 20; trial++ {
		tb := randomTable(r, r.Intn(5000))
		for _, keys := range keySets {
			want, err := OrderBy(tb, keys)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 7} {
				got, err := OrderByPar(tb, keys, testPar(w))
				if err != nil {
					t.Fatal(err)
				}
				mustEqualTables(t, fmt.Sprintf("trial %d keys %v w=%d", trial, keys, w), want, got)
			}
		}
	}
}

// Below the row threshold, at one worker, or with a single morsel to
// hand out, every operator must take the serial path: OnParallel never
// fires.
func TestParallelThresholdFallback(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tb := randomTable(r, 500)
	for _, p := range []Par{
		{Workers: 8, Threshold: 5000},
		{Workers: 1, Threshold: 1},
		{}, // zero value: fully serial
	} {
		fired := false
		p.OnParallel = func(int, int) func() { fired = true; return nil }
		if _, err := CompileFilter(tb, keyAtLeast(0)).Select(AllRows(tb), p); err != nil {
			t.Fatal(err)
		}
		if _, err := GroupByPar(tb, "G", []int{0}, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}}, p); err != nil {
			t.Fatal(err)
		}
		if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, p); err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatalf("parallel path taken under %+v", p)
		}
	}
	// With the threshold floored the sort fans out and reports the
	// fan-out it used; the filter still has one morsel and stays serial.
	fanOut := 0
	p := testPar(4)
	p.OnParallel = func(shards, workers int) func() {
		fanOut = workers
		if shards != 4 {
			t.Errorf("OnParallel(%d, %d): want one sort run per worker", shards, workers)
		}
		return nil
	}
	if _, err := CompileFilter(tb, keyAtLeast(0)).Select(AllRows(tb), p); err != nil || fanOut != 0 {
		t.Fatalf("one-morsel filter: fan-out %d, err %v, want serial", fanOut, err)
	}
	if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, p); err != nil || fanOut != 4 {
		t.Fatalf("sort: fan-out %d, err %v, want 4", fanOut, err)
	}
}

// A failing Poll hook aborts every operator with the hook's error.
func TestParallelCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tb := randomTable(r, 8000)
	boom := errors.New("aborted by test")
	p := testPar(4)
	p.Poll = func() error { return boom }

	if _, err := CompileFilter(tb, keyAtLeast(0)).Select(AllRows(tb), p); !errors.Is(err, boom) {
		t.Errorf("filter: err = %v, want %v", err, boom)
	}
	if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, p); !errors.Is(err, boom) {
		t.Errorf("order-by: err = %v, want %v", err, boom)
	}
}

// mixedKindColumn yields alternating integer and date values — a kind
// mix that cannot come from a real typed column but models corrupted or
// future variant columns; Compare errors on it.
type mixedKindColumn struct{ n int }

func (c *mixedKindColumn) Kind() value.Kind { return value.KindInt }
func (c *mixedKindColumn) Len() int         { return c.n }
func (c *mixedKindColumn) Value(i uint32) value.Value {
	if i%2 == 0 {
		return value.NewInt(int64(i))
	}
	return value.NewDate(int64(i))
}
func (c *mixedKindColumn) IsNull(uint32) bool         { return false }
func (c *mixedKindColumn) Append(value.Value) error   { return errors.New("read-only") }
func (c *mixedKindColumn) Gather(idx []uint32) Column { return &mixedKindColumn{n: len(idx)} }
func (c *mixedKindColumn) Distinct() int              { return -1 }

// Regression: OrderBy over an incomparable key column must return the
// type error deterministically (it previously latched the first error
// but kept sorting on a corrupt ordering). Both the serial and parallel
// paths surface the same error.
func TestOrderByMixedKindKeyError(t *testing.T) {
	tb := &Table{
		Name:   "M",
		schema: Schema{{Name: "m", Type: value.Int}},
		cols:   []Column{&mixedKindColumn{n: 1000}},
		rows:   1000,
	}
	_, err := OrderBy(tb, []SortKey{{Col: 0}})
	var te *value.TypeError
	if !errors.As(err, &te) {
		t.Fatalf("serial: err = %v, want a *value.TypeError", err)
	}
	_, err2 := OrderBy(tb, []SortKey{{Col: 0}})
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("serial error not deterministic: %v vs %v", err, err2)
	}
	if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, testPar(4)); !errors.As(err, &te) {
		t.Fatalf("parallel: err = %v, want a *value.TypeError", err)
	}
}

// The parallel group-by surfaces aggregate type errors (sum over
// varchar) like the serial one.
func TestGroupByParAggregateError(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	tb := randomTable(r, 6000)
	_, err := GroupByPar(tb, "G", nil, []AggSpec{{Func: AggSum, Col: 2, Name: "s"}}, testPar(4))
	if err == nil {
		t.Fatal("sum over varchar must fail on the parallel path")
	}
}

// Empty inputs stay well-formed on the parallel path.
func TestParallelEmptyInputs(t *testing.T) {
	empty := MustNew("E", Schema{{Name: "k", Type: value.Int}})
	p := testPar(4)
	if rows, err := CompileFilter(empty, keyAtLeast(0)).Select(AllRows(empty), p); err != nil || rows.Len() != 0 {
		t.Fatalf("filter over empty: %v, %v", rows, err)
	}
	out, err := GroupByPar(empty, "G", nil, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}}, p)
	if err != nil || out.NumRows() != 1 || out.Value(0, 0).Int() != 0 {
		t.Fatalf("global aggregate over empty table: %v, %v", out, err)
	}
	if out, err := OrderByPar(empty, []SortKey{{Col: 0}}, p); err != nil || out.NumRows() != 0 {
		t.Fatalf("sort over empty: %v, %v", out, err)
	}
}
