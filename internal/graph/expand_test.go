package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"graql/internal/bitmap"
)

// expandCase is one model instance for the expansion kernel: an edge type
// (over one vertex type, with self-loops, or between two of different
// sizes; multi-edges and degree-0 vertices included), a frontier over one
// side, a range of it, and a target set already holding bits.
type expandCase struct {
	et          *EdgeType
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

// randomExpandCase draws a case from r; lo and hi are taken modulo a
// little past the frontier's length so both land off word boundaries and
// hi can pass Len.
func randomExpandCase(t *testing.T, r *rand.Rand, reverse, forward bool, lo, hi uint32) expandCase {
	nSrc, nDst := 1+r.Intn(200), 1+r.Intn(200)
	src, dst := vertexFixture(t, "s", nSrc), vertexFixture(t, "d", nDst)
	loops := r.Intn(2) == 0
	if loops {
		dst, nDst = src, nSrc
	}
	edges := make([]Edge, r.Intn(4*max(nSrc, nDst)))
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
	et := NewEdgeType(0, "e", src, dst, edges, nil, reverse)
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
	return expandCase{et: et, forward: forward, from: from, seed: seed, lo: lo, hi: hi,
		description: fmt.Sprintf("reverse=%v forward=%v |S|=%d |T|=%d |E|=%d lo=%d hi=%d", reverse, forward, nSrc, nDst, len(edges), lo, hi)}
}

// check runs the kernel on c and compares it with the union of Adjacent
// over the members in range, and (members, walked) with the per-vertex
// sums; without a reverse index, backward, the one-pass scan must reach
// what Adjacent reaches from every member.
func (c expandCase) check(t *testing.T) {
	t.Helper()
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

func TestExpandRangeMatchesAdjacent(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 300; i++ {
		for _, reverse := range []bool{true, false} {
			for _, forward := range []bool{true, false} {
				randomExpandCase(t, r, reverse, forward, r.Uint32(), r.Uint32()).check(t)
			}
		}
	}
	// Whole-word, single-word, empty and past-the-end ranges.
	for _, rg := range [][2]uint32{{0, 64}, {64, 128}, {3, 5}, {5, 5}, {9, 2}, {0, 1 << 31}} {
		c := randomExpandCase(t, r, true, true, 0, 0)
		c.lo, c.hi = rg[0], rg[1]
		c.check(t)
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
		randomExpandCase(t, rand.New(rand.NewSource(seed)), reverse, forward, lo, hi).check(t)
	})
}
