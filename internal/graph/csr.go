package graph

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
