package graph

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Graph is the overall typed multigraph G = (V, E): the union of all vertex
// types (which partition V) and all edge types (which partition E), per
// paper §II-A1.
type Graph struct {
	vertexTypes []*VertexType
	edgeTypes   []*EdgeType
	vtxByName   map[string]*VertexType
	edgByName   map[string]*EdgeType
}

// NewGraph returns an empty typed multigraph.
func NewGraph() *Graph {
	return &Graph{
		vtxByName: make(map[string]*VertexType),
		edgByName: make(map[string]*EdgeType),
	}
}

// Clone returns a graph holding the same types, to which a writer can add
// without touching g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		vertexTypes: slices.Clone(g.vertexTypes),
		edgeTypes:   slices.Clone(g.edgeTypes),
		vtxByName:   maps.Clone(g.vtxByName),
		edgByName:   maps.Clone(g.edgByName),
	}
}

// AddVertexType registers a vertex type; names are unique
// (case-insensitive).
func (g *Graph) AddVertexType(vt *VertexType) error {
	low := strings.ToLower(vt.Name)
	if _, dup := g.vtxByName[low]; dup {
		return fmt.Errorf("graql: vertex type %s already exists", vt.Name)
	}
	g.vtxByName[low] = vt
	g.vertexTypes = append(g.vertexTypes, vt)
	return nil
}

// AddEdgeType registers an edge type; names are unique (case-insensitive).
func (g *Graph) AddEdgeType(et *EdgeType) error {
	low := strings.ToLower(et.Name)
	if _, dup := g.edgByName[low]; dup {
		return fmt.Errorf("graql: edge type %s already exists", et.Name)
	}
	g.edgByName[low] = et
	g.edgeTypes = append(g.edgeTypes, et)
	return nil
}

// VertexType returns the named vertex type, or nil.
func (g *Graph) VertexType(name string) *VertexType { return g.vtxByName[strings.ToLower(name)] }

// EdgeType returns the named edge type, or nil.
func (g *Graph) EdgeType(name string) *EdgeType { return g.edgByName[strings.ToLower(name)] }

// VertexTypes returns all vertex types in creation order.
func (g *Graph) VertexTypes() []*VertexType { return g.vertexTypes }

// EdgeTypes returns all edge types in creation order.
func (g *Graph) EdgeTypes() []*EdgeType { return g.edgeTypes }

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
