package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graql/internal/table"
)

// heldBytes sums the bytes of the distinct arrays behind every slice
// field of v, a struct, descending into struct fields (an EdgeType's two
// CSRs) but not through pointers (its vertex types and associated table).
func heldBytes(v reflect.Value, seen map[uintptr]bool) int {
	n := 0
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			n += heldBytes(f, seen)
		case reflect.Slice:
			if p := f.Pointer(); p != 0 && !seen[p] {
				seen[p] = true
				n += f.Cap() * int(f.Type().Elem().Size())
			}
		}
	}
	return n
}

// attrFixture is an associated table of n rows, each distinct.
func attrFixture(t *testing.T, n int) *table.Table {
	t.Helper()
	rows := make([][2]string, n)
	for i := range rows {
		rows[i] = [2]string{fmt.Sprintf("a%d", i), fmt.Sprintf("g%d", i%7)}
	}
	return baseTable(t, rows)
}

// TestEdgeLayoutBytes pins what an edge type stores: an edge is a slot of
// its forward index and no edge list is kept. The CSR form holds
// 4(|V_src|+1) + 4|E| bytes forward, the functional form 4|V_src| (a
// column); the reverse index holds 4(|V_dst|+1) + 8|E| (sources and ids),
// or 4(|V_dst|+1) + 4|E| over a column, whose ids are its sources; and
// attributes add 4|E| of origAttrRows.
func TestEdgeLayoutBytes(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := range 60 {
		functional, reverse, attrs := i%2 == 0, i%3 == 0, i%4 >= 2 && i%2 == 1
		nSrc, nDst := 1+r.Intn(50), 1+r.Intn(50)
		src, dst := vertexFixture(t, "s", nSrc), vertexFixture(t, "d", nDst)
		var at *table.Table
		if attrs {
			at = attrFixture(t, 1+r.Intn(20))
		}
		var edges []Edge
		for s := range uint32(nSrc) {
			for range r.Intn(4) {
				e := Edge{Src: s, Dst: uint32(r.Intn(nDst)), AttrRow: NoVertex}
				if at != nil {
					e.AttrRow = uint32(r.Intn(at.NumRows()))
				}
				edges = append(edges, e)
			}
		}
		r.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		var et *EdgeType
		if functional {
			et = NewFunctionalEdgeType(0, "e", src, dst, edges, reverse)
		} else {
			et = NewEdgeType(0, "e", src, dst, edges, at, reverse)
		}
		e := et.Count()
		want := 4 * (nSrc + 1 + e)
		if functional {
			want = 4 * nSrc
		}
		if reverse {
			want += 4 * (nDst + 1 + 2*e)
			if functional {
				want -= 4 * e
			}
		}
		if attrs {
			want += 4 * e
		}
		if got := heldBytes(reflect.ValueOf(*et), map[uintptr]bool{}); got != want {
			t.Errorf("functional=%v reverse=%v attrs=%v |V_src|=%d |V_dst|=%d |E|=%d: %d bytes, want %d",
				functional, reverse, attrs, nSrc, nDst, e, got, want)
		}
	}
}

// randomDelta draws how an id space of n old ids moves: nil (no change),
// or a Delta whose Remap (nil: identity) drops some ids and renumbers the
// rest among newN ids, and whose Changed lists the new ids nothing old
// maps to plus some that are rewritten.
func randomDelta(r *rand.Rand, n int) (d *Delta, newN int) {
	if r.Intn(4) == 0 {
		return nil, n
	}
	d, newN = &Delta{}, n
	if r.Intn(3) > 0 {
		d.Remap = make([]uint32, n)
		newN = 0
		for i := range d.Remap {
			d.Remap[i] = NoVertex
			if r.Intn(5) > 0 {
				d.Remap[i] = uint32(newN)
				newN++
			}
		}
		r.Shuffle(n, func(a, b int) { d.Remap[a], d.Remap[b] = d.Remap[b], d.Remap[a] })
		newN += r.Intn(4)
	}
	hit := make([]bool, newN)
	for _, id := range d.Remap {
		if id != NoVertex {
			hit[id] = true
		}
	}
	for id := range newN {
		if d.Remap != nil && !hit[id] || r.Intn(8) == 0 {
			d.Changed = append(d.Changed, uint32(id))
		}
	}
	return d, newN
}

// carried is the model of a carry: the new id of an old one, NoVertex
// when it is gone or rewritten.
func carried(d *Delta, id uint32) uint32 {
	if d == nil {
		return id
	}
	if d.Remap != nil {
		id = d.Remap[id]
	}
	if id != NoVertex && slices.Contains(d.Changed, id) {
		return NoVertex
	}
	return id
}

// TestPatchEdgeTypeMatchesModel patches random edge types of both forms
// (parallel edges, unsorted sources, attribute rows) under random carries
// of the source, target and attribute id spaces, deletions included, plus
// added edges, and checks the result against a model: each source's
// edges in slot order are its survivors in their old slot order, remapped,
// then its added edges (a column keeps the last); the attributes of each
// id are read from the row its origAttrRows entry names; the reverse rows are the
// transpose, ids ascending; and Validate passes.
func TestPatchEdgeTypeMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := range 300 {
		functional, reverse, loops := trial%2 == 0, r.Intn(3) > 0, r.Intn(4) == 0
		nSrc, nDst := 1+r.Intn(30), 1+r.Intn(30)
		if loops {
			nDst = nSrc
		}
		src, dst := vertexFixture(t, "s", nSrc), vertexFixture(t, "d", nDst)
		if loops {
			dst = src
		}
		var attrs *table.Table
		if !functional && r.Intn(2) == 0 {
			attrs = attrFixture(t, 1+r.Intn(20))
		}
		// draw returns k edges over nS sources, nD targets and, when nA
		// is above 0, nA attribute rows; k is 0 where a space is empty.
		draw := func(nS, nD, nA int, k int) []Edge {
			if nS == 0 || nD == 0 || attrs != nil && nA == 0 {
				k = 0
			}
			edges := make([]Edge, k)
			for i := range edges {
				edges[i] = Edge{Src: uint32(r.Intn(nS)), Dst: uint32(r.Intn(nD)), AttrRow: NoVertex}
				if nA > 0 {
					edges[i].AttrRow = uint32(r.Intn(nA))
				}
				if i > 0 && r.Intn(5) == 0 { // a parallel edge
					edges[i] = edges[i-1]
				}
			}
			return edges
		}
		nA := 0
		if attrs != nil {
			nA = attrs.NumRows()
		}
		var et *EdgeType
		if functional {
			et = NewFunctionalEdgeType(0, "e", src, dst, draw(nSrc, nDst, nA, r.Intn(2*nSrc)), reverse)
		} else {
			et = NewEdgeType(0, "e", src, dst, draw(nSrc, nDst, nA, r.Intn(3*nSrc)), attrs, reverse)
		}

		srcD, newSrc := randomDelta(r, nSrc)
		dstD, newDst := srcD, newSrc
		if !loops {
			dstD, newDst = randomDelta(r, nDst)
		}
		src2, dst2 := vertexFixture(t, "s", newSrc), vertexFixture(t, "d", newDst)
		if loops {
			dst2 = src2
		}
		var attrD *Delta
		var attrs2 *table.Table
		newA := 0
		if attrs != nil {
			attrD, newA = randomDelta(r, nA)
			attrs2 = attrFixture(t, newA)
		}
		added := draw(newSrc, newDst, newA, r.Intn(nSrc+1))
		got := PatchEdgeType(et, src2, dst2, srcD, dstD, attrD, added, attrs2)
		what := fmt.Sprintf("trial %d: functional=%v reverse=%v loops=%v attrs=%v", trial, functional, reverse, loops, attrs != nil)

		// The model: (target, attribute row) per new source.
		model := make([][][2]uint32, newSrc)
		for e, s := range et.IDs() {
			ns, nd, na := carried(srcD, s), carried(dstD, et.fwd.nbr[e]), NoVertex
			if attrs != nil {
				na = carried(attrD, et.origAttrRows[e])
			}
			if ns != NoVertex && nd != NoVertex && (attrs == nil || na != NoVertex) {
				model[ns] = append(model[ns], [2]uint32{nd, na})
			}
		}
		for _, e := range added {
			model[e.Src] = append(model[e.Src], [2]uint32{e.Dst, e.AttrRow})
		}
		for s := range uint32(newSrc) {
			want := model[s]
			if functional && len(want) > 1 {
				want = want[len(want)-1:]
			}
			var row [][2]uint32
			lo, hi := got.fwd.row(s)
			for e := lo; e < hi; e++ {
				a := NoVertex
				if attrs != nil {
					a = got.origAttrRows[e]
				}
				row = append(row, [2]uint32{got.fwd.nbr[e], a})
			}
			if !slices.Equal(row, want) {
				t.Fatalf("%s: source %d has (target, attr row) %v, want %v", what, s, row, want)
			}
		}
		if attrs != nil {
			for e := range got.IDs() {
				for c := range attrs2.NumCols() {
					if v, want := got.AttrValue(e, c), attrs2.Value(got.origAttrRows[e], c); !reflect.DeepEqual(v, want) {
						t.Fatalf("%s: attribute %d of edge %d = %v, want %v from row %d of the table", what, c, e, v, want, got.origAttrRows[e])
					}
				}
			}
		}
		if reverse {
			want := make([][][2]uint32, newDst) // (source, id) per target
			for e, s := range got.IDs() {
				d := got.fwd.nbr[e]
				want[d] = append(want[d], [2]uint32{s, e})
			}
			for d := range uint32(newDst) {
				nbr, ids := got.rev.Neighbors(d)
				var row [][2]uint32
				for i, s := range nbr {
					row = append(row, [2]uint32{s, ids.At(i)})
				}
				if !slices.Equal(row, want[d]) {
					t.Fatalf("%s: reverse row %d = %v, want %v", what, d, row, want[d])
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}
