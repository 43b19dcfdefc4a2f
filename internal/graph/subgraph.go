package graph

import "graql/internal/bitmap"

// Subgraph is a named query result (paper §II-C, "into subgraph"): a
// subset of the database graph represented as per-type vertex and edge
// bitmaps. Because vertex types partition V and edge types partition E,
// a pair of per-type bitmaps identifies any subgraph exactly.
//
// A subgraph may be disconnected (selecting only the first and last steps
// of a path query yields one, Fig. 11) and can seed a later query's first
// vertex step (Fig. 12).
type Subgraph struct {
	Name     string
	Vertices map[*VertexType]*bitmap.Bitmap
	Edges    map[*EdgeType]*bitmap.Bitmap
}

// NewSubgraph returns an empty named subgraph.
func NewSubgraph(name string) *Subgraph {
	return &Subgraph{
		Name:     name,
		Vertices: make(map[*VertexType]*bitmap.Bitmap),
		Edges:    make(map[*EdgeType]*bitmap.Bitmap),
	}
}

// VertexSet returns the (lazily created) vertex bitmap for vt.
func (s *Subgraph) VertexSet(vt *VertexType) *bitmap.Bitmap {
	b, ok := s.Vertices[vt]
	if !ok {
		b = bitmap.New(vt.Count())
		s.Vertices[vt] = b
	}
	return b
}

// EdgeSet returns the (lazily created) edge bitmap for et, over its edge
// id space.
func (s *Subgraph) EdgeSet(et *EdgeType) *bitmap.Bitmap {
	b, ok := s.Edges[et]
	if !ok {
		b = bitmap.New(et.NumIDs())
		s.Edges[et] = b
	}
	return b
}

// NumVertices returns the total number of vertices in the subgraph.
func (s *Subgraph) NumVertices() int {
	n := 0
	for _, b := range s.Vertices {
		n += b.Count()
	}
	return n
}

// NumEdges returns the total number of edges in the subgraph.
func (s *Subgraph) NumEdges() int {
	n := 0
	for _, b := range s.Edges {
		n += b.Count()
	}
	return n
}
