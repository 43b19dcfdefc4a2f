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
//
// A functional edge type (each source has at most one target) stores its
// forward index as a column: nil offsets, and nbr holds one target per
// source vertex, NoVertex where there is none. Its edge ids are its
// sources, so neither of its indexes stores eid: the column's is nil (the
// id of an edge is the vertex asked about) and its transpose's is nbr
// itself (the id of an edge is the source listed).
type CSR struct {
	offsets []uint32 // len = numVertices+1; nil: nbr is a column
	nbr     []uint32 // neighbor vertex ids, grouped by source
	eid     []uint32 // parallel edge ids; nil for a column, nbr for its transpose
}

// buildCSR constructs a CSR with numSrc source vertices by counting sort
// over the entries i of keys that are not NoVertex: entry i is keyed by
// keys[i], its neighbour is vals[i] and its edge id i. With nil vals the
// neighbour is i and eid is nbr itself — the transpose of a column, whose
// edge ids are the sources it lists.
func buildCSR(numSrc int, keys, vals []uint32) CSR {
	c := CSR{offsets: make([]uint32, numSrc+1)}
	for _, s := range keys {
		if s != NoVertex {
			c.offsets[s+1]++
		}
	}
	for i := 1; i <= numSrc; i++ {
		c.offsets[i] += c.offsets[i-1]
	}
	c.nbr = make([]uint32, c.offsets[numSrc])
	c.eid = c.nbr
	if vals != nil {
		c.eid = make([]uint32, len(c.nbr))
	}
	cursor := make([]uint32, numSrc)
	for e, s := range keys {
		if s == NoVertex {
			continue
		}
		pos := c.offsets[s] + cursor[s]
		cursor[s]++
		if vals == nil {
			c.nbr[pos] = uint32(e)
		} else {
			c.nbr[pos], c.eid[pos] = vals[e], uint32(e)
		}
	}
	return c
}

// Degree returns the number of edges out of vertex v in this direction.
func (c *CSR) Degree(v uint32) int {
	switch {
	case c.offsets != nil:
		return int(c.offsets[v+1] - c.offsets[v])
	case c.nbr[v] == NoVertex:
		return 0
	}
	return 1
}

// Neighbors returns the neighbor and edge-id slices for vertex v. The
// returned slices alias the index and must not be modified. A column
// returns nil edge ids: the id of v's edge is v (EdgeID).
func (c *CSR) Neighbors(v uint32) (nbr, eid []uint32) {
	if c.offsets == nil {
		if c.nbr[v] == NoVertex {
			return nil, nil
		}
		return c.nbr[v : v+1], nil
	}
	lo, hi := c.offsets[v], c.offsets[v+1]
	return c.nbr[lo:hi], c.eid[lo:hi]
}

// EdgeID returns the id of the i-th edge Neighbors(v) returned with eids:
// eids[i], or v itself when eids is nil.
func EdgeID(eids []uint32, i int, v uint32) uint32 {
	if eids == nil {
		return v
	}
	return eids[i]
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
