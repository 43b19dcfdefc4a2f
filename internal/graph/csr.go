package graph

import (
	"math/bits"

	"graql/internal/bitmap"
)

// CSR is a compressed-sparse-row adjacency index over one edge type: for
// each source vertex, the contiguous slice of (neighbor, edge id) pairs.
// GEMS builds the index in the lexical direction of the edge declaration
// and, when memory allows, also in the reverse direction (paper §III-B),
// which is what lets the planner evaluate a path query from either end.
type CSR struct {
	offsets []uint32 // len = numVertices+1
	nbr     []uint32 // neighbor vertex ids, grouped by source
	eid     []uint32 // parallel edge ids
}

// buildCSR constructs a CSR with numSrc source vertices from parallel
// (src, dst) edge arrays via counting sort; eids are edge list positions.
func buildCSR(numSrc int, srcs, dsts []uint32) CSR {
	c := CSR{
		offsets: make([]uint32, numSrc+1),
		nbr:     make([]uint32, len(srcs)),
		eid:     make([]uint32, len(srcs)),
	}
	for _, s := range srcs {
		c.offsets[s+1]++
	}
	for i := 1; i <= numSrc; i++ {
		c.offsets[i] += c.offsets[i-1]
	}
	cursor := make([]uint32, numSrc)
	for e, s := range srcs {
		pos := c.offsets[s] + cursor[s]
		cursor[s]++
		c.nbr[pos] = dsts[e]
		c.eid[pos] = uint32(e)
	}
	return c
}

// Degree returns the number of edges out of vertex v in this direction.
func (c *CSR) Degree(v uint32) int {
	return int(c.offsets[v+1] - c.offsets[v])
}

// Neighbors returns the neighbor and edge-id slices for vertex v. The
// returned slices alias the index and must not be modified.
func (c *CSR) Neighbors(v uint32) (nbr, eid []uint32) {
	lo, hi := c.offsets[v], c.offsets[v+1]
	return c.nbr[lo:hi], c.eid[lo:hi]
}

// NumEdges returns the total number of edges indexed.
func (c *CSR) NumEdges() int { return len(c.nbr) }

// ExpandRange is the set-at-a-time expansion kernel of Eq. 5: it ORs into
// out every neighbour of every member of from in [lo, hi) (hi is clipped
// to from's length) and returns how many members it swept and how many
// index entries it walked. It reads from's words and slices the index
// directly, one word of the frontier at a time, and allocates nothing; a
// neighbour already in out is simply set again.
func (c *CSR) ExpandRange(from *bitmap.Bitmap, lo, hi uint32, out *bitmap.Bitmap) (members, walked int) {
	hi = min(hi, uint32(from.Len()))
	if lo >= hi {
		return 0, 0
	}
	words, dst := from.Words(), out.Words()
	offsets, nbr := c.offsets, c.nbr
	first, last := lo/64, (hi-1)/64
	for wi := first; wi <= last; wi++ {
		w := words[wi]
		if wi == first {
			w &= ^uint64(0) << (lo % 64)
		}
		if rem := hi % 64; wi == last && rem != 0 {
			w &= 1<<rem - 1
		}
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
