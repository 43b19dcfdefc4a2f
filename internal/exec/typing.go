package exec

import (
	"graql/internal/graph"
	"graql/internal/sema"
)

// forEachTyping enumerates every consistent assignment of concrete vertex
// and edge types to a pattern's variant steps (paper Eq. 11 and the Eq. 12
// label-expansion rule: "a type matched label expands into a set of
// labels, an independent one for each matching type"). fn runs once per
// typing; results across typings are unioned by the caller.
func (e *Engine) forEachTyping(pat *sema.Pattern, fn func(nt []*graph.VertexType, et []*graph.EdgeType) error) error {
	g := e.version().Graph()
	nt := make([]*graph.VertexType, len(pat.Nodes))
	et := make([]*graph.EdgeType, len(pat.Edges))

	var assignEdge func(j int) error
	assignEdge = func(j int) error {
		if j == len(pat.Edges) {
			return fn(nt, et)
		}
		pe := pat.Edges[j]
		if pe.Regex != nil {
			et[j] = nil
			return assignEdge(j + 1)
		}
		if pe.Type != nil {
			// sema guarantees concrete edges have concrete endpoints.
			if pe.Type.Src != nt[pe.Src] || pe.Type.Dst != nt[pe.Dst] {
				return nil
			}
			et[j] = pe.Type
			return assignEdge(j + 1)
		}
		// Variant edge: every edge type between the assigned endpoint
		// types (∪_j E_j(V_a, V_b), Eq. 11).
		for _, cand := range g.EdgeTypesBetween(nt[pe.Src], nt[pe.Dst]) {
			et[j] = cand
			if err := assignEdge(j + 1); err != nil {
				return err
			}
		}
		et[j] = nil
		return nil
	}

	var assignNode func(i int) error
	assignNode = func(i int) error {
		if i == len(pat.Nodes) {
			return assignEdge(0)
		}
		n := pat.Nodes[i]
		switch {
		case n.Type != nil:
			nt[i] = n.Type
			return assignNode(i + 1)
		case n.SameTypeAs >= 0:
			// The type binds to the referenced (earlier) node's type.
			nt[i] = nt[n.SameTypeAs]
			return assignNode(i + 1)
		default:
			for _, cand := range g.VertexTypes() {
				nt[i] = cand
				if err := assignNode(i + 1); err != nil {
					return err
				}
			}
			nt[i] = nil
			return nil
		}
	}
	return assignNode(0)
}
