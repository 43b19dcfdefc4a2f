package table

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graql/internal/expr"
	"graql/internal/value"
)

// The operator-specialised loops (DESIGN.md §16) narrow buffers in place
// and skip the NULL test where a column has none. The tests here pin what
// the property tests over propTable do not: that in-place narrowing never
// reaches a selection the caller passed in, that a sparse selection still
// gets its NULL test, and — through FuzzRelOps — that group-by, distinct
// and order-by/top-n match the boxed reference from any seed.

// TestFilterLeavesCallerSelection runs `and` chains of comparisons over
// RowsOf(t, idx), the form a DML where clause and a graph step's frontier
// take, serially and on two workers: idx must be unchanged afterwards, and
// the selection the reference's.
func TestFilterLeavesCallerSelection(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		rows := r.Intn(200)
		if trial%10 == 0 {
			rows = 2*morselSize + r.Intn(morselSize) // several morsels
		}
		tb := propTable(r, rows)
		g := predGen{r: r, tb: tb}
		for i := 0; i < 20; i++ {
			e := g.cmp()
			for j := r.Intn(4); j > 0; j-- {
				e = expr.NewBinary(expr.OpAnd, e, g.cmp())
			}
			idx := thinned(tb, uint8(r.Intn(256))).idx
			keep := slices.Clone(idx)
			want, wantErr := refSelect(RowsOf(tb, keep), e)
			for _, p := range []Par{{}, {Workers: 2, Threshold: 1}} {
				got, err := CompileFilter(tb, e).Select(RowsOf(tb, idx), p)
				if !slices.Equal(idx, keep) {
					t.Fatalf("%s (workers %d) wrote into the caller's selection", e, p.Workers)
				}
				if !sameError(err, wantErr) || err == nil && !slices.Equal(got.idx, want) {
					t.Fatalf("%s over %d rows (workers %d): %v, %v; reference %v, %v", e, len(idx), p.Workers, got.idx, err, want, wantErr)
				}
			}
		}
	}
}

// TestSparseSelectionKeepsNullTest: a few rows spread over a long column
// span more mask words than rows, so the NULL test runs unread.
func TestSparseSelectionKeepsNullTest(t *testing.T) {
	tb := MustNew("S", Schema{{Name: "n", Type: value.Int}})
	for i := 0; i < 20000; i++ {
		v := value.NewInt(int64(i % 5))
		if i == 5 || i == 19999 {
			v = value.NewNull(value.KindInt)
		}
		if err := tb.AppendRow([]value.Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	in := RowsOf(tb, []uint32{5, 10000, 19999})
	ge := expr.NewBinary(expr.OpGe, &expr.Ref{Source: 0, Col: 0}, expr.NewConst(value.NewInt(0)))
	got, err := CompileFilter(tb, ge).Select(in, Par{})
	if err != nil || !slices.Equal(got.idx, []uint32{10000}) {
		t.Fatalf("n >= 0 over rows 5, 10000, 19999 = %v, %v; want [10000]", got.idx, err)
	}
	g, err := in.GroupBy("G", nil, []AggSpec{{Func: AggCount, Col: 0, Name: "c"}, {Func: AggMax, Col: 0, Name: "m"}})
	if err != nil || g.Value(0, 0).Int() != 1 || g.Value(0, 1).Int() != 0 {
		t.Fatalf("count(n), max(n) over rows 5, 10000, 19999: %s, %v", render(g), err)
	}
}

// FuzzRelOps drives TestOperatorsMatchBoxedReference's checks from fuzzed
// seeds: one seed shapes the table, the other the operators, and mask
// thins the rows into an ascending selection that is run next to every
// row.
func FuzzRelOps(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(40), uint8(0b10110101))
	f.Add(int64(42), int64(43), uint8(0), uint8(0xff))
	f.Add(int64(-7), int64(1<<40), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, tableSeed, opSeed int64, rows, mask uint8) {
		tb := propTable(rand.New(rand.NewSource(tableSeed)), int(rows))
		r := rand.New(rand.NewSource(opSeed))
		for i := 0; i < 4; i++ {
			checkRelOps(t, r, AllRows(tb))
			checkRelOps(t, r, thinned(tb, mask))
		}
	})
}

// checkRelOps asserts that a random group-by, distinct and order-by with
// top-n over in render exactly as the boxed reference does.
func checkRelOps(t *testing.T, r *rand.Rand, in Rows) {
	t.Helper()
	tb, n := in.t, in.t.NumCols()
	rows := in.span().minus(nil)
	what := fmt.Sprintf("%d of %d rows", len(rows), tb.NumRows())

	keyCols := r.Perm(n)[:r.Intn(min(n, 3)+1)] // no keys: a global aggregate
	var aggs []AggSpec
	for i, k := 0, 1+r.Intn(4); i < k; i++ {
		a := AggSpec{Func: AggFunc(r.Intn(5)), Col: r.Intn(n), Name: fmt.Sprintf("a%d", i)}
		if numeric := tb.Col(a.Col).Kind().Numeric(); !numeric && (a.Func == AggSum || a.Func == AggAvg) {
			a.Func = AggMin
		}
		if a.Func == AggCount && r.Intn(2) == 0 {
			a.Col = -1
		}
		aggs = append(aggs, a)
	}
	got, err := in.GroupBy("G", keyCols, aggs)
	if err != nil {
		t.Fatalf("%s: group by %v %v: %v", what, keyCols, aggs, err)
	}
	if want := render(refGroupBy(tb, rows, keyCols, aggs)); render(got) != want {
		t.Fatalf("%s: group by %v %v:\n%s\nreference:\n%s", what, keyCols, aggs, render(got), want)
	}

	dcols := randCols(r, n, 3)
	all := dcols
	if r.Intn(4) == 0 {
		dcols, all = nil, tb.allCols()
	}
	want := render(tb.Gather("D", refDistinct(tb, rows, all)))
	if got := render(in.Distinct(dcols).Materialize("D", nil, nil)); got != want {
		t.Fatalf("%s: distinct %v:\n%s\nreference:\n%s", what, dcols, got, want)
	}

	var keys []SortKey
	for _, c := range randCols(r, n, 3) {
		keys = append(keys, SortKey{Col: c, Desc: r.Intn(2) == 0})
	}
	sorted := refOrderBy(tb, rows, keys)
	for _, top := range []int{0, 1, 1 + r.Intn(10), len(rows)} {
		wantRows := sorted
		if top > 0 && top < len(sorted) {
			wantRows = sorted[:top]
		}
		want := render(tb.Gather("S", wantRows))
		for _, p := range []Par{{}, {Workers: 2, Threshold: 1}} {
			ordered, err := in.OrderBy(keys, top, p)
			if err != nil {
				t.Fatal(err)
			}
			if top > 0 {
				ordered = ordered.Top(top)
			}
			if got := render(ordered.Materialize("S", nil, nil)); got != want {
				t.Fatalf("%s: order by %v top %d (workers %d):\n%s\nreference:\n%s", what, keys, top, p.Workers, got, want)
			}
		}
	}
}
