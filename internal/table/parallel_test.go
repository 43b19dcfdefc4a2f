package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graql/internal/value"
)

// testPar grants w workers with the threshold floored so even tiny
// tables take the parallel path.
func testPar(w int) Par { return Par{Workers: w, Threshold: 1} }

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

// Property: the parallel filter returns the exact row-id sequence of the
// serial scan, for every worker count.
func TestFilterParEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		tb := randomTable(r, r.Intn(4000))
		pred := func(row uint32) (bool, error) {
			v := tb.Value(row, 0)
			return !v.IsNull() && v.Int()%3 == 0, nil
		}
		want, err := FilterIdx(tb, pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			got, err := FilterIdxPar(tb, pred, testPar(w))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d w=%d: %d rows, want %d", trial, w, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d w=%d: idx[%d] = %d, want %d", trial, w, i, got[i], want[i])
				}
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

// Property: the parallel join matches the serial join as a multiset of
// (left row, right row) pairs; NULL keys never join on either path.
func TestHashJoinParEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		l := randomTable(r, r.Intn(2500))
		rt := randomTable(r, r.Intn(2500))
		cols := []int{0, 2}
		li, ri := HashJoinIdx(l, rt, cols, cols)
		want := map[[2]uint32]int{}
		for i := range li {
			want[[2]uint32{li[i], ri[i]}]++
		}
		for _, w := range []int{2, 4} {
			pli, pri, err := HashJoinIdxPar(l, rt, cols, cols, testPar(w))
			if err != nil {
				t.Fatal(err)
			}
			if len(pli) != len(li) {
				t.Fatalf("trial %d w=%d: %d pairs, want %d", trial, w, len(pli), len(li))
			}
			got := map[[2]uint32]int{}
			for i := range pli {
				got[[2]uint32{pli[i], pri[i]}]++
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("trial %d w=%d: pair %v count %d, want %d", trial, w, k, got[k], n)
				}
			}
		}
	}
}

// The parallel join is deterministic: the same inputs produce the same
// pair sequence at every worker count (partitioning is by key hash, not
// by scheduling).
func TestHashJoinParDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	l, rt := randomTable(r, 3000), randomTable(r, 3000)
	base, baseR, err := HashJoinIdxPar(l, rt, []int{0}, []int{0}, testPar(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 8} {
		li, ri, err := HashJoinIdxPar(l, rt, []int{0}, []int{0}, testPar(w))
		if err != nil {
			t.Fatal(err)
		}
		if len(li) != len(base) {
			t.Fatalf("w=%d: %d pairs, want %d", w, len(li), len(base))
		}
		for i := range base {
			if li[i] != base[i] || ri[i] != baseR[i] {
				t.Fatalf("w=%d: pair %d = (%d,%d), want (%d,%d)", w, i, li[i], ri[i], base[i], baseR[i])
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

// Below the row threshold (or at one worker) every operator must take
// the serial path: OnParallel never fires.
func TestParallelThresholdFallback(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tb := randomTable(r, 500)
	for _, p := range []Par{
		// The join threshold counts both sides, so 5000 keeps even the
		// self-join of 500 rows serial.
		{Workers: 8, Threshold: 5000},
		{Workers: 1, Threshold: 1},
		{}, // zero value: fully serial
	} {
		fired := false
		p.OnParallel = func(string, int, int) { fired = true }
		if _, err := FilterIdxPar(tb, func(uint32) (bool, error) { return true, nil }, p); err != nil {
			t.Fatal(err)
		}
		if _, err := GroupByPar(tb, "G", []int{0}, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}}, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := HashJoinIdxPar(tb, tb, []int{0}, []int{0}, p); err != nil {
			t.Fatal(err)
		}
		if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, p); err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatalf("parallel path taken under %+v", p)
		}
	}
	// Sanity: with the threshold floored the hook does fire.
	fired := false
	p := testPar(4)
	p.OnParallel = func(op string, shards, workers int) {
		fired = true
		if shards <= 0 || workers <= 0 || workers > 4 {
			t.Errorf("OnParallel(%s, %d, %d) out of range", op, shards, workers)
		}
	}
	if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, p); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("OnParallel did not fire on the parallel path")
	}
}

// A failing Poll hook aborts every operator with the hook's error.
func TestParallelCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tb := randomTable(r, 8000)
	boom := errors.New("aborted by test")
	p := testPar(4)
	p.Poll = func() error { return boom }

	if _, err := FilterIdxPar(tb, func(uint32) (bool, error) { return true, nil }, p); !errors.Is(err, boom) {
		t.Errorf("filter: err = %v, want %v", err, boom)
	}
	if _, _, err := HashJoinIdxPar(tb, tb, []int{0}, []int{0}, p); !errors.Is(err, boom) {
		t.Errorf("join: err = %v, want %v", err, boom)
	}
	if _, err := OrderByPar(tb, []SortKey{{Col: 0}}, p); !errors.Is(err, boom) {
		t.Errorf("order-by: err = %v, want %v", err, boom)
	}
}

// Predicate errors abort the parallel filter like the serial one.
func TestFilterParPredicateError(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tb := randomTable(r, 6000)
	boom := errors.New("bad predicate")
	_, err := FilterIdxPar(tb, func(row uint32) (bool, error) {
		if row == 5000 {
			return false, boom
		}
		return true, nil
	}, testPar(4))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
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
	if idx, err := FilterIdxPar(empty, func(uint32) (bool, error) { return true, nil }, p); err != nil || len(idx) != 0 {
		t.Fatalf("filter over empty: %v, %v", idx, err)
	}
	out, err := GroupByPar(empty, "G", nil, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}}, p)
	if err != nil || out.NumRows() != 1 || out.Value(0, 0).Int() != 0 {
		t.Fatalf("global aggregate over empty table: %v, %v", out, err)
	}
	if li, ri, err := HashJoinIdxPar(empty, empty, []int{0}, []int{0}, p); err != nil || len(li) != 0 || len(ri) != 0 {
		t.Fatalf("join over empty: %v %v %v", li, ri, err)
	}
	if out, err := OrderByPar(empty, []SortKey{{Col: 0}}, p); err != nil || out.NumRows() != 0 {
		t.Fatalf("sort over empty: %v, %v", out, err)
	}
}
