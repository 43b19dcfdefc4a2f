package table

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"graql/internal/expr"
	"graql/internal/value"
)

func benchTable(b *testing.B, rows, distinct int) *Table {
	b.Helper()
	tb := MustNew("B", Schema{
		{Name: "k", Type: value.Int},
		{Name: "v", Type: value.Float},
		{Name: "s", Type: value.Text},
	})
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow([]value.Value{
			value.NewInt(int64(i % distinct)),
			value.NewFloat(float64(i) * 0.5),
			value.NewString(fmt.Sprintf("s%d", i%97)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func BenchmarkFilterScan(b *testing.B) {
	tb := benchTable(b, 100_000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := FilterIdx(tb, func(r uint32) (bool, error) {
			return tb.Value(r, 0).Int() < 100, nil
		})
		if err != nil || len(idx) == 0 {
			b.Fatal("filter failed")
		}
	}
}

// relTable is a table shaped like Berlin's Reviews: a varchar key drawn
// from keys strings and two integer ratings in 1..10, at random so that no
// branch on them predicts.
func relTable(b *testing.B, rows, keys int) *Table {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	tb := MustNew("R", Schema{{Name: "k", Type: value.Text}, {Name: "x", Type: value.Int}, {Name: "y", Type: value.Int}})
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow([]value.Value{
			value.NewString(fmt.Sprintf("p%d", r.Intn(keys))),
			value.NewInt(int64(1 + r.Intn(10))),
			value.NewInt(int64(1 + r.Intn(10))),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// everyOther is the ascending selection of tb's even rows.
func everyOther(tb *Table) Rows {
	idx := make([]uint32, 0, tb.NumRows()/2)
	for r := 0; r < tb.NumRows(); r += 2 {
		idx = append(idx, uint32(r))
	}
	return RowsOf(tb, idx)
}

// BenchmarkCompiledFilter prices the engine's filter path, CompileFilter
// and Select, over every row or an every-other-row selection, with one
// conjunct (x >= 6) or two (and y < 8), on one worker and on two with the
// parallel threshold at one morsel: the grid E29 reads the crossover from.
func BenchmarkCompiledFilter(b *testing.B) {
	x, y := &expr.Ref{Source: 0, Col: 1}, &expr.Ref{Source: 0, Col: 2}
	preds := []expr.Expr{
		expr.NewBinary(expr.OpGe, x, expr.NewConst(value.NewInt(6))),
		expr.NewBinary(expr.OpAnd, expr.NewBinary(expr.OpGe, x, expr.NewConst(value.NewInt(6))),
			expr.NewBinary(expr.OpLt, y, expr.NewConst(value.NewInt(8)))),
	}
	for _, rows := range []int{4096, 16384, 20000, 65536} {
		tb := relTable(b, rows, 100)
		for _, in := range []struct {
			name string
			rows Rows
		}{{"dense", AllRows(tb)}, {"sel", everyOther(tb)}} {
			for conj, pred := range preds {
				for _, w := range []int{1, 2} {
					b.Run(fmt.Sprintf("rows=%d/%s/conj=%d/workers=%d", rows, in.name, conj+1, w), func(b *testing.B) {
						p := Par{Workers: w, Threshold: 1}
						for i := 0; i < b.N; i++ {
							if _, err := CompileFilter(tb, pred).Select(in.rows, p); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.rows.Len()), "ns/row")
					})
				}
			}
		}
	}
}

// BenchmarkGroupByDict prices a varchar-keyed group-by over a selection,
// avg(x) and count(*) per key, as Berlin's review queries run it.
func BenchmarkGroupByDict(b *testing.B) {
	tb := relTable(b, 40_000, 4000)
	in := everyOther(tb)
	aggs := []AggSpec{{Func: AggAvg, Col: 1, Name: "a"}, {Func: AggCount, Col: -1, Name: "n"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.GroupBy("G", []int{0}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupBySum(b *testing.B) {
	tb := benchTable(b, 100_000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := GroupBy(tb, "G", []int{0}, []AggSpec{{Func: AggSum, Col: 1, Name: "s"}})
		if err != nil || out.NumRows() != 1000 {
			b.Fatal("groupby failed")
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	l := benchTable(b, 50_000, 5000)
	r := benchTable(b, 50_000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		li, _ := HashJoinIdx(l, r, []int{0}, []int{0})
		if len(li) == 0 {
			b.Fatal("join empty")
		}
	}
}

func BenchmarkOrderBy(b *testing.B) {
	tb := benchTable(b, 100_000, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OrderBy(tb, []SortKey{{Col: 2}, {Col: 1, Desc: true}}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts is the worker grid for the parallel-operator
// benchmarks: serial baseline, a fixed mid point, and the machine's
// full width (deduplicated so single-core hosts run each count once).
func benchWorkerCounts() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	seen := make(map[int]bool, len(counts))
	var out []int
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// benchPar forces the threshold down so every benchmarked input takes
// the parallel path whenever workers > 1; workers == 1 exercises the
// serial fallback through the same entry points.
func benchPar(workers int) Par {
	return Par{Workers: workers, Threshold: 1}
}

func BenchmarkGroupByPar(b *testing.B) {
	tb := benchTable(b, 100_000, 1000)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := benchPar(w)
			for i := 0; i < b.N; i++ {
				out, err := GroupByPar(tb, "G", []int{0}, []AggSpec{{Func: AggSum, Col: 1, Name: "s"}}, p)
				if err != nil || out.NumRows() != 1000 {
					b.Fatal("groupby failed")
				}
			}
		})
	}
}

func BenchmarkOrderByPar(b *testing.B) {
	tb := benchTable(b, 100_000, 100_000)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := benchPar(w)
			for i := 0; i < b.N; i++ {
				if _, err := OrderByPar(tb, []SortKey{{Col: 2}, {Col: 1, Desc: true}}, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoadCSV(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&sb, "%d,%f,s%d\n", i, float64(i)*0.5, i%97)
	}
	data := sb.String()
	proto := MustNew("C", Schema{
		{Name: "k", Type: value.Int},
		{Name: "v", Type: value.Float},
		{Name: "s", Type: value.Text},
	})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCSV(proto, strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
