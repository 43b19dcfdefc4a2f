package table

import (
	"math/rand"
	"testing"

	"graql/internal/value"
)

func numTable(t *testing.T, rows [][2]int64) *Table {
	t.Helper()
	tb := MustNew("N", Schema{
		{Name: "k", Type: value.Int},
		{Name: "v", Type: value.Int},
	})
	for _, r := range rows {
		if err := tb.AppendRow([]value.Value{value.NewInt(r[0]), value.NewInt(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestFilter(t *testing.T) {
	tb := numTable(t, [][2]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}})
	idx, err := FilterIdx(tb, func(r uint32) (bool, error) {
		return tb.Value(r, 1).Int() >= 25, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Gather("F", idx)
	if out.NumRows() != 2 || out.Value(0, 0).Int() != 3 {
		t.Errorf("filter rows wrong: %d", out.NumRows())
	}
}

func TestOrderByStableMultiKey(t *testing.T) {
	tb := numTable(t, [][2]int64{{2, 1}, {1, 2}, {2, 0}, {1, 1}, {1, 2}})
	out, err := OrderBy(tb, []SortKey{{Col: 0, Desc: false}, {Col: 1, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {1, 2}, {1, 1}, {2, 1}, {2, 0}}
	for i, w := range want {
		if out.Value(uint32(i), 0).Int() != w[0] || out.Value(uint32(i), 1).Int() != w[1] {
			t.Fatalf("row %d = (%v,%v), want %v", i, out.Value(uint32(i), 0), out.Value(uint32(i), 1), w)
		}
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	tb := MustNew("N", Schema{{Name: "v", Type: value.Int}})
	_ = tb.AppendRow([]value.Value{value.NewInt(5)})
	_ = tb.AppendRow([]value.Value{value.NewNull(value.KindInt)})
	out, err := OrderBy(tb, []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Value(0, 0).IsNull() {
		t.Error("NULL must order first ascending")
	}
}

func TestDistinctAndTopN(t *testing.T) {
	tb := numTable(t, [][2]int64{{1, 1}, {1, 1}, {2, 2}, {1, 1}, {2, 3}})
	d := Distinct(tb, nil)
	if d.NumRows() != 3 {
		t.Errorf("distinct rows = %d, want 3", d.NumRows())
	}
	dk := Distinct(tb, []int{0})
	if dk.NumRows() != 2 {
		t.Errorf("distinct on key = %d, want 2", dk.NumRows())
	}
	top := TopN(tb, 2)
	if top.NumRows() != 2 || top.Value(1, 1).Int() != 1 {
		t.Error("TopN wrong")
	}
	if TopN(tb, 100).NumRows() != 5 {
		t.Error("TopN beyond size must return all")
	}
}

func TestGroupByAggregates(t *testing.T) {
	tb := numTable(t, [][2]int64{{1, 10}, {2, 5}, {1, 20}, {2, 7}, {1, 30}})
	out, err := GroupBy(tb, "G", []int{0}, []AggSpec{
		{Func: AggCount, Col: -1, Name: "n"},
		{Func: AggSum, Col: 1, Name: "s"},
		{Func: AggAvg, Col: 1, Name: "a"},
		{Func: AggMin, Col: 1, Name: "lo"},
		{Func: AggMax, Col: 1, Name: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	// Groups appear in first-occurrence order: key 1 then key 2.
	checks := [][]int64{{1, 3, 60, 10, 30}, {2, 2, 12, 5, 7}}
	for g, want := range checks {
		if out.Value(uint32(g), 0).Int() != want[0] ||
			out.Value(uint32(g), 1).Int() != want[1] ||
			out.Value(uint32(g), 2).Int() != want[2] ||
			out.Value(uint32(g), 4).Int() != want[3] ||
			out.Value(uint32(g), 5).Int() != want[4] {
			t.Errorf("group %d wrong: %v", g, out.Row(uint32(g)))
		}
	}
	if a := out.Value(0, 3).Float(); a != 20 {
		t.Errorf("avg = %v, want 20", a)
	}
}

func TestGroupByGlobalAndEmpty(t *testing.T) {
	tb := numTable(t, [][2]int64{{1, 10}, {2, 20}})
	out, err := GroupBy(tb, "G", nil, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Value(0, 0).Int() != 2 {
		t.Error("global count wrong")
	}
	empty := numTable(t, nil)
	out, err = GroupBy(empty, "G", nil, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Value(0, 0).Int() != 0 {
		t.Error("global count over empty table must be one row of 0")
	}
}

func TestGroupByCountSkipsNulls(t *testing.T) {
	tb := MustNew("N", Schema{{Name: "k", Type: value.Int}, {Name: "v", Type: value.Int}})
	_ = tb.AppendRow([]value.Value{value.NewInt(1), value.NewInt(10)})
	_ = tb.AppendRow([]value.Value{value.NewInt(1), value.NewNull(value.KindInt)})
	out, err := GroupBy(tb, "G", []int{0}, []AggSpec{
		{Func: AggCount, Col: 1, Name: "nv"},
		{Func: AggCount, Col: -1, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value(0, 1).Int() != 1 {
		t.Errorf("count(col) must skip NULLs, got %v", out.Value(0, 1))
	}
	if out.Value(0, 2).Int() != 2 {
		t.Errorf("count(*) counts all rows, got %v", out.Value(0, 2))
	}
}

func TestSumOverStringsFails(t *testing.T) {
	tb := MustNew("S", Schema{{Name: "s", Type: value.Text}})
	_ = tb.AppendRow([]value.Value{value.NewString("x")})
	_, err := GroupBy(tb, "G", nil, []AggSpec{{Func: AggSum, Col: 0, Name: "s"}})
	if err == nil {
		t.Error("sum over varchar must fail")
	}
}

// Property: hash join equals nested-loop join on random tables (with
// NULLs, which never match).
func TestHashJoinAgainstNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		mk := func(n int) *Table {
			tb := MustNew("R", Schema{{Name: "k", Type: value.Int}, {Name: "p", Type: value.Int}})
			for i := 0; i < n; i++ {
				k := value.NewInt(int64(r.Intn(8)))
				if r.Intn(10) == 0 {
					k = value.NewNull(value.KindInt)
				}
				_ = tb.AppendRow([]value.Value{k, value.NewInt(int64(i))})
			}
			return tb
		}
		l, rt := mk(r.Intn(30)), mk(r.Intn(30))
		li, ri := HashJoinIdx(l, rt, []int{0}, []int{0})
		got := map[[2]uint32]int{}
		for i := range li {
			got[[2]uint32{li[i], ri[i]}]++
		}
		want := map[[2]uint32]int{}
		for a := uint32(0); a < uint32(l.NumRows()); a++ {
			for b := uint32(0); b < uint32(rt.NumRows()); b++ {
				va, vb := l.Value(a, 0), rt.Value(b, 0)
				if !va.IsNull() && !vb.IsNull() && value.Equal(va, vb) {
					want[[2]uint32{a, b}]++
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: join size %d, want %d", trial, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("trial %d: pair %v count %d, want %d", trial, k, got[k], n)
			}
		}
	}
}
