package table

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

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
