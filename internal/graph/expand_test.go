package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graql/internal/bitmap"
)

// expandCase is one model instance for the expansion kernel: an edge type
// (over one vertex type, with self-loops, or between two of different
// sizes; multi-edges and degree-0 vertices included — or, in the
// functional form, a column with holes), its edge list, a frontier over
// one side, a range of it, and a target set already holding bits.
type expandCase struct {
	et          *EdgeType
	edges       []Edge
	forward     bool
	from, seed  *bitmap.Bitmap
	lo, hi      uint32
	description string
}

func vertexFixture(t *testing.T, name string, n int) *VertexType {
	t.Helper()
	rows := make([][2]string, n)
	for i := range rows {
		rows[i] = [2]string{fmt.Sprintf("%s%d", name, i), "g"}
	}
	vt, err := BuildVertexType(0, name, baseTable(t, rows), []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return vt
}

// randomExpandCase draws a case from r, of the functional form when
// functional is set; lo and hi are taken modulo a little past the
// frontier's length so both land off word boundaries and hi can pass Len.
func randomExpandCase(t *testing.T, r *rand.Rand, functional, reverse, forward bool, lo, hi uint32) expandCase {
	nSrc, nDst := 1+r.Intn(200), 1+r.Intn(200)
	src, dst := vertexFixture(t, "s", nSrc), vertexFixture(t, "d", nDst)
	loops := r.Intn(2) == 0
	if loops {
		dst, nDst = src, nSrc
	}
	var et *EdgeType
	var edges []Edge
	if functional {
		// One target or a hole per source; targets that are multiples of
		// 3 above 0 keep in-degree 0, but for self-loops.
		for s := range uint32(nSrc) {
			if d := uint32(r.Intn(nDst)); r.Intn(3) > 0 && (d%3 != 0 || d == 0 || loops) {
				edges = append(edges, Edge{Src: s, Dst: d})
			}
		}
		et = NewFunctionalEdgeType(0, "e", src, dst, edges, reverse)
	} else {
		edges = make([]Edge, r.Intn(4*max(nSrc, nDst)))
		for i := range edges {
			// Odd sources and targets that are multiples of 3 above 0 keep
			// degree 0, but for self-loops.
			s, d := uint32(r.Intn(nSrc))&^1, uint32(r.Intn(nDst))
			if d%3 == 0 && d > 0 {
				d--
			}
			switch {
			case loops && r.Intn(4) == 0:
				d = s
			case i > 0 && r.Intn(6) == 0: // a multi-edge
				s, d = edges[i-1].Src, edges[i-1].Dst
			}
			edges[i] = Edge{Src: s, Dst: d}
		}
		et = NewEdgeType(0, "e", src, dst, edges, nil, reverse)
	}
	nFrom, nOut := nSrc, nDst
	if !forward {
		nFrom, nOut = nDst, nSrc
	}
	from, seed := bitmap.New(nFrom), bitmap.New(nOut)
	density := r.Float64()
	for v := 0; v < nFrom; v++ {
		if r.Float64() < density {
			from.Set(uint32(v))
		}
	}
	for v := 0; v < nOut; v++ {
		if r.Intn(10) == 0 {
			seed.Set(uint32(v))
		}
	}
	span := uint32(nFrom + 70)
	lo, hi = lo%span, hi%span
	if lo > hi && r.Intn(2) == 0 {
		lo, hi = hi, lo
	}
	return expandCase{et: et, edges: edges, forward: forward, from: from, seed: seed, lo: lo, hi: hi,
		description: fmt.Sprintf("functional=%v reverse=%v forward=%v |S|=%d |T|=%d |E|=%d lo=%d hi=%d", functional, reverse, forward, nSrc, nDst, len(edges), lo, hi)}
}

// check runs the kernel on c and compares it with the union of Adjacent
// over the members in range, and (members, walked) with the per-vertex
// sums; without a reverse index, backward, the one-pass scan must reach
// what Adjacent reaches from every member, and EdgesInto must yield the
// edges into the frontier in id order. Adjacent itself must list each
// member's edges of the edge list, ids included.
func (c expandCase) check(t *testing.T) {
	t.Helper()
	c.checkAdjacent(t)
	if !c.forward {
		var into, scan [][2]uint32 // (edge id, source)
		for e, s := range c.et.EdgesInto(c.from) {
			into = append(into, [2]uint32{e, s})
		}
		for e := range c.et.IDs() {
			if s, d := c.et.EdgeAt(e); c.from.Get(d) {
				scan = append(scan, [2]uint32{e, s})
			}
		}
		if !slices.Equal(into, scan) {
			t.Errorf("%s: EdgesInto = %v, want %v", c.description, into, scan)
		}
	}
	got, want := c.seed.Clone(), c.seed.Clone()
	lo, hi := c.lo, c.hi
	csr := c.et.Index(c.forward)
	if csr == nil {
		lo, hi = 0, uint32(c.from.Len())
		c.et.ScanBackward(c.from, got)
	}
	wantMembers, wantWalked := 0, 0
	c.from.ForEachRange(lo, hi, func(v uint32) {
		nbr, _, _ := c.et.Adjacent(v, c.forward)
		wantMembers++
		wantWalked += len(nbr)
		for _, u := range nbr {
			want.Set(u)
		}
	})
	if csr != nil {
		members, walked := csr.ExpandRange(c.from, c.lo, c.hi, got)
		if members != wantMembers || walked != wantWalked {
			t.Errorf("%s: (members, walked) = (%d, %d), want (%d, %d)", c.description, members, walked, wantMembers, wantWalked)
		}
	}
	if !got.Equal(want) {
		t.Errorf("%s: out = %v, want %v", c.description, got.Slice(), want.Slice())
	}
}

// checkAdjacent compares Adjacent, for every vertex on the frontier's
// side, with the edges of c's edge list at that vertex.
func (c expandCase) checkAdjacent(t *testing.T) {
	t.Helper()
	want := make(map[uint32][][2]uint32) // vertex -> (neighbour, edge id)
	for e := range c.et.IDs() {
		s, d := c.et.EdgeAt(e)
		if c.forward {
			want[s] = append(want[s], [2]uint32{d, e})
		} else {
			want[d] = append(want[d], [2]uint32{s, e})
		}
	}
	model := make(map[uint32][]uint32)
	for _, e := range c.edges {
		if c.forward {
			model[e.Src] = append(model[e.Src], e.Dst)
		} else {
			model[e.Dst] = append(model[e.Dst], e.Src)
		}
	}
	for v := range uint32(c.from.Len()) {
		nbr, ids, _ := c.et.Adjacent(v, c.forward)
		var got [][2]uint32
		for i, u := range nbr {
			got = append(got, [2]uint32{u, ids.At(i)})
		}
		sortPairs(got)
		sortPairs(want[v])
		gotNbr := make([]uint32, len(got))
		for i, p := range got {
			gotNbr[i] = p[0]
		}
		slices.Sort(model[v])
		if !slices.Equal(got, want[v]) || !slices.Equal(gotNbr, model[v]) {
			t.Fatalf("%s: Adjacent(%d) = %v, want %v over edges %v", c.description, v, got, want[v], model[v])
		}
	}
}

func sortPairs(p [][2]uint32) {
	slices.SortFunc(p, func(a, b [2]uint32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
}

func TestExpandRangeMatchesAdjacent(t *testing.T) {
	// The CSR form's cases, then as many of the functional form's, each
	// from its own stream.
	for seed, functional := range []bool{false, true} {
		r := rand.New(rand.NewSource(int64(39 + seed)))
		for i := 0; i < 300; i++ {
			for _, reverse := range []bool{true, false} {
				for _, forward := range []bool{true, false} {
					randomExpandCase(t, r, functional, reverse, forward, r.Uint32(), r.Uint32()).check(t)
				}
			}
		}
		// Whole-word, single-word, empty and past-the-end ranges.
		for _, rg := range [][2]uint32{{0, 64}, {64, 128}, {3, 5}, {5, 5}, {9, 2}, {0, 1 << 31}} {
			c := randomExpandCase(t, r, functional, true, true, 0, 0)
			c.lo, c.hi = rg[0], rg[1]
			c.check(t)
		}
	}
}

func TestIndexDirections(t *testing.T) {
	for _, reverse := range []bool{true, false} {
		_, et := edgeFixture(t, 3, [][2]uint32{{0, 1}}, reverse)
		if et.Index(true) != et.Forward() {
			t.Errorf("reverse=%v: Index(true) is not the forward CSR", reverse)
		}
		if rev, ok := et.Reverse(); (et.Index(false) != nil) != ok || ok && et.Index(false) != rev {
			t.Errorf("reverse=%v: Index(false) = %p", reverse, et.Index(false))
		}
	}
}

func FuzzExpandRange(f *testing.F) {
	f.Add(int64(1), uint32(0), uint32(64), true, true)
	f.Add(int64(2), uint32(3), uint32(300), false, false)
	f.Add(int64(3), uint32(65), uint32(127), true, false)
	f.Fuzz(func(t *testing.T, seed int64, lo, hi uint32, reverse, forward bool) {
		for _, functional := range []bool{false, true} {
			randomExpandCase(t, rand.New(rand.NewSource(seed)), functional, reverse, forward, lo, hi).check(t)
		}
	})
}
