package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"graql/internal/table"
	"graql/internal/value"
)

func benchVertexBase(b *testing.B, n int) *table.Table {
	b.Helper()
	tb := table.MustNew("V", table.Schema{{Name: "id", Type: value.Int}})
	for i := 0; i < n; i++ {
		if err := tb.AppendRow([]value.Value{value.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func BenchmarkBuildCSR(b *testing.B) {
	const nV, nE = 100_000, 500_000
	r := rand.New(rand.NewSource(1))
	base := benchVertexBase(b, nV)
	vt, err := BuildVertexType(0, "V", base, []int{0}, nil)
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]Edge, nE)
	for i := range edges {
		edges[i] = Edge{Src: uint32(r.Intn(nV)), Dst: uint32(r.Intn(nV))}
	}
	for _, reverse := range []bool{false, true} {
		name := "forward-only"
		if reverse {
			name = "bidirectional"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				et := NewEdgeType(0, "E", vt, vt, edges, nil, reverse)
				if et.Count() != nE {
					b.Fatal("bad edge count")
				}
			}
			b.ReportMetric(float64(nE*b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkPatchEdgeType prices one maintained write's re-freeze of an
// edge type over 20 000 vertices: three vertices rewritten, two edges
// added, reverse index on, in each form — a column with a quarter of its
// sources empty, and a CSR with 0–3 edges per source.
func BenchmarkPatchEdgeType(b *testing.B) {
	const n = 20_000
	r := rand.New(rand.NewSource(1))
	vt, _ := BuildVertexType(0, "V", benchVertexBase(b, n), []int{0}, nil)
	var column, rows []Edge
	for s := range uint32(n) {
		if r.Intn(4) > 0 {
			column = append(column, Edge{Src: s, Dst: uint32(r.Intn(n))})
		}
		for range r.Intn(4) {
			rows = append(rows, Edge{Src: s, Dst: uint32(r.Intn(n))})
		}
	}
	d := &Delta{Changed: []uint32{5, 77, 1234}}
	added := []Edge{{Src: 5, Dst: 9}, {Src: 77, Dst: 1}}
	for name, et := range map[string]*EdgeType{
		"functional": NewFunctionalEdgeType(0, "F", vt, vt, column, true),
		"csr":        NewEdgeType(0, "C", vt, vt, rows, nil, true),
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PatchEdgeType(et, vt, vt, d, d, nil, added, nil)
			}
		})
	}
}

func BenchmarkNeighborIteration(b *testing.B) {
	const nV, nE = 10_000, 100_000
	r := rand.New(rand.NewSource(2))
	base := benchVertexBase(b, nV)
	vt, _ := BuildVertexType(0, "V", base, []int{0}, nil)
	edges := make([]Edge, nE)
	for i := range edges {
		edges[i] = Edge{Src: uint32(r.Intn(nV)), Dst: uint32(r.Intn(nV))}
	}
	et := NewEdgeType(0, "E", vt, vt, edges, nil, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum uint64
		for v := uint32(0); v < nV; v++ {
			nbr, _ := et.Forward().Neighbors(v)
			for _, t := range nbr {
				sum += uint64(t)
			}
		}
		if sum == 0 {
			b.Fatal("no edges walked")
		}
	}
	b.ReportMetric(float64(nE*b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkKeyLookup(b *testing.B) {
	const n = 100_000
	tb := table.MustNew("V", table.Schema{{Name: "id", Type: value.Varchar(16)}})
	for i := 0; i < n; i++ {
		if err := tb.AppendRow([]value.Value{value.NewString(fmt.Sprintf("key-%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
	vt, err := BuildVertexType(0, "V", tb, []int{0}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []value.Value{value.NewString(fmt.Sprintf("key-%d", i%n))}
		if _, ok := vt.LookupKeyValues(key); !ok {
			b.Fatal("missing key")
		}
	}
}
