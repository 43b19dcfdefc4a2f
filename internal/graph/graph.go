package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Graph is the overall typed multigraph G = (V, E): the union of all vertex
// types (which partition V) and all edge types (which partition E), per
// paper §II-A1. Names are looked up by a case-insensitive scan: a graph
// holds a few dozen types at most.
type Graph struct {
	vertexTypes []*VertexType
	edgeTypes   []*EdgeType
}

// NewGraph returns an empty typed multigraph.
func NewGraph() *Graph { return &Graph{} }

// Clone returns a graph holding the same types, to which a writer can add
// or put without touching g.
func (g *Graph) Clone() *Graph {
	return &Graph{slices.Clone(g.vertexTypes), slices.Clone(g.edgeTypes)}
}

// AddVertexType registers a vertex type; names are unique
// (case-insensitive).
func (g *Graph) AddVertexType(vt *VertexType) error {
	if g.VertexType(vt.Name) != nil {
		return fmt.Errorf("graql: vertex type %s already exists", vt.Name)
	}
	g.vertexTypes = append(g.vertexTypes, vt)
	return nil
}

// AddEdgeType registers an edge type; names are unique (case-insensitive).
func (g *Graph) AddEdgeType(et *EdgeType) error {
	if g.EdgeType(et.Name) != nil {
		return fmt.Errorf("graql: edge type %s already exists", et.Name)
	}
	g.edgeTypes = append(g.edgeTypes, et)
	return nil
}

// PutVertexType replaces g's vertex type of vt's name by vt, in its slot:
// view maintenance installs a new version so, on a Clone nobody reads yet.
func (g *Graph) PutVertexType(vt *VertexType) {
	g.vertexTypes[slices.Index(g.vertexTypes, g.VertexType(vt.Name))] = vt
}

// PutEdgeType is PutVertexType for an edge type.
func (g *Graph) PutEdgeType(et *EdgeType) {
	g.edgeTypes[slices.Index(g.edgeTypes, g.EdgeType(et.Name))] = et
}

// VertexType returns the named vertex type, or nil.
func (g *Graph) VertexType(name string) *VertexType {
	for _, vt := range g.vertexTypes {
		if strings.EqualFold(vt.Name, name) {
			return vt
		}
	}
	return nil
}

// EdgeType returns the named edge type, or nil.
func (g *Graph) EdgeType(name string) *EdgeType {
	for _, et := range g.edgeTypes {
		if strings.EqualFold(et.Name, name) {
			return et
		}
	}
	return nil
}

// VertexTypes returns all vertex types in creation order.
func (g *Graph) VertexTypes() []*VertexType { return g.vertexTypes }

// EdgeTypes returns all edge types in creation order.
func (g *Graph) EdgeTypes() []*EdgeType { return g.edgeTypes }

// Holds is the one version rule: what was derived from vt and et still
// holds while each is nil or one of g's types, pointer for pointer.
func (g *Graph) Holds(vt *VertexType, et *EdgeType) bool {
	return (vt == nil || slices.Contains(g.vertexTypes, vt)) && (et == nil || slices.Contains(g.edgeTypes, et))
}

// Valid reports whether subgraph s is still valid in g: g Holds every
// type it holds, whose ids its bitmaps index.
func (g *Graph) Valid(s *Subgraph) bool {
	for vt := range s.Vertices {
		if !g.Holds(vt, nil) {
			return false
		}
	}
	for et := range s.Edges {
		if !g.Holds(nil, et) {
			return false
		}
	}
	return true
}

// EdgeTypesBetween returns every edge type with the given source and target
// vertex types — the paper's ∪_j E_j(V_a, V_b), used to expand `[ ]`
// variant steps (Eq. 11).
func (g *Graph) EdgeTypesBetween(src, dst *VertexType) []*EdgeType {
	var out []*EdgeType
	for _, et := range g.edgeTypes {
		if et.Src == src && et.Dst == dst {
			out = append(out, et)
		}
	}
	return out
}

// NumVertices returns the total vertex count across all types.
func (g *Graph) NumVertices() int {
	n := 0
	for _, vt := range g.vertexTypes {
		n += vt.Count()
	}
	return n
}

// NumEdges returns the total edge count across all types.
func (g *Graph) NumEdges() int {
	n := 0
	for _, et := range g.edgeTypes {
		n += et.Count()
	}
	return n
}
