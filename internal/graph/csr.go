package graph

import (
	"math/bits"

	"graql/internal/bitmap"
)

// CSR is a compressed-sparse-row adjacency index over one edge type: for
// each source vertex, the contiguous row of slots [offsets[v],
// offsets[v+1]) holding its neighbours. GEMS builds the index in the
// lexical direction of the edge declaration and, when memory allows, also
// in the reverse direction (paper §III-B), which is what lets the planner
// evaluate a path query from either end.
//
// An edge's id is its slot in the forward index, so the forward index
// stores no ids. A functional edge type (each source has at most one
// target) has the same layout with implied unit offsets: nil offsets, row
// v is slot v, and NoVertex in nbr marks an empty row. A reverse index
// lists, per target, the sources in nbr and the ids in eid, ids
// ascending; the transpose of a column shares eid with nbr, since there
// the id is the source.
type CSR struct {
	offsets []uint32 // len = numVertices+1; nil: unit rows (a column)
	nbr     []uint32 // neighbour vertex ids in slot order
	eid     []uint32 // edge id per slot; nil in a forward index (id = slot)
}

// EdgeIDs names the edge ids of one row of a CSR, aligned with its
// neighbours: the i-th is eid[first+i], or first+i when eid is nil.
type EdgeIDs struct {
	first uint32
	eid   []uint32
}

// At returns the id of the edge to the row's i-th neighbour.
func (ids EdgeIDs) At(i int) uint32 {
	if ids.eid == nil {
		return ids.first + uint32(i)
	}
	return ids.eid[ids.first+uint32(i)]
}

// numRows returns the number of vertices c has a row for.
func (c *CSR) numRows() int {
	if c.offsets == nil {
		return len(c.nbr)
	}
	return len(c.offsets) - 1
}

// row returns the slots [lo, hi) of v's row.
func (c *CSR) row(v uint32) (lo, hi uint32) {
	switch {
	case c.offsets != nil:
		return c.offsets[v], c.offsets[v+1]
	case c.nbr[v] == NoVertex:
		return v, v
	}
	return v, v + 1
}

// source returns the vertex whose row holds slot e, walking the rows
// forward from vertex from, whose row starts at or before e (0 will do).
func (c *CSR) source(e, from uint32) uint32 {
	if c.offsets == nil {
		return e
	}
	for c.offsets[from+1] <= e {
		from++
	}
	return from
}

// transpose returns et's reverse index: one counting sort by target
// over IDs, so each row lists its ids ascending. The offsets are the
// sort's cursors: placing an edge advances its target's offset, which so
// ends at the start of the next row, and one shift puts them back.
func (et *EdgeType) transpose() CSR {
	numDst, fwd := et.Dst.Count(), &et.fwd
	t := CSR{offsets: make([]uint32, numDst+1)}
	for _, d := range fwd.nbr {
		if d != NoVertex {
			t.offsets[d+1]++
		}
	}
	for i := 1; i <= numDst; i++ {
		t.offsets[i] += t.offsets[i-1]
	}
	t.nbr = make([]uint32, t.offsets[numDst])
	t.eid = t.nbr
	if fwd.offsets != nil {
		t.eid = make([]uint32, len(t.nbr))
	}
	for e, s := range et.IDs() {
		// A column's id is its source: the two writes agree.
		d := fwd.nbr[e]
		t.nbr[t.offsets[d]], t.eid[t.offsets[d]] = s, e
		t.offsets[d]++
	}
	copy(t.offsets[1:], t.offsets[:numDst])
	t.offsets[0] = 0
	return t
}

// Degree returns the number of edges out of vertex v in this direction.
func (c *CSR) Degree(v uint32) int {
	lo, hi := c.row(v)
	return int(hi - lo)
}

// Neighbors returns v's neighbours and the ids of the connecting edges.
// The neighbour slice aliases the index and must not be modified.
func (c *CSR) Neighbors(v uint32) (nbr []uint32, ids EdgeIDs) {
	lo, hi := c.row(v)
	return c.nbr[lo:hi], EdgeIDs{lo, c.eid}
}

// NumEdges returns the total number of edges indexed (a column counts
// its entries other than NoVertex).
func (c *CSR) NumEdges() int {
	if c.offsets != nil {
		return len(c.nbr)
	}
	n := 0
	for _, t := range c.nbr {
		if t != NoVertex {
			n++
		}
	}
	return n
}

// ExpandRange is the set-at-a-time expansion kernel of Eq. 5: it ORs into
// out every neighbour of every member of from in [lo, hi) (hi is clipped
// to from's length) and returns how many members it swept and how many
// index entries it walked. It reads from's words and slices the index
// directly, one word of the frontier at a time, and allocates nothing; a
// neighbour already in out is simply set again. The form is decided once
// per call: a column is read one entry per member.
func (c *CSR) ExpandRange(from *bitmap.Bitmap, lo, hi uint32, out *bitmap.Bitmap) (members, walked int) {
	hi = min(hi, uint32(from.Len()))
	if lo >= hi {
		return 0, 0
	}
	words, dst := from.Words(), out.Words()
	offsets, nbr := c.offsets, c.nbr
	first, last := lo/64, (hi-1)/64
	if offsets == nil {
		for wi := first; wi <= last; wi++ {
			w := rangeWord(words, wi, lo, hi)
			members += bits.OnesCount64(w)
			for ; w != 0; w &= w - 1 {
				if t := nbr[wi*64+uint32(bits.TrailingZeros64(w))]; t != NoVertex {
					walked++
					dst[t/64] |= 1 << (t % 64)
				}
			}
		}
		return members, walked
	}
	for wi := first; wi <= last; wi++ {
		w := rangeWord(words, wi, lo, hi)
		members += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			v := wi*64 + uint32(bits.TrailingZeros64(w))
			adj := nbr[offsets[v]:offsets[v+1]]
			walked += len(adj)
			for _, t := range adj {
				dst[t/64] |= 1 << (t % 64)
			}
		}
	}
	return members, walked
}

// rangeWord returns word wi of a frontier's words clipped to [lo, hi).
func rangeWord(words []uint64, wi, lo, hi uint32) uint64 {
	w := words[wi]
	if wi == lo/64 {
		w &= ^uint64(0) << (lo % 64)
	}
	if rem := hi % 64; wi == (hi-1)/64 && rem != 0 {
		w &= 1<<rem - 1
	}
	return w
}
