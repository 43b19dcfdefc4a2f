package exec

import (
	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/sema"
)

// runAltSubgraph evaluates one alternative of select s and accumulates its
// matching subgraph (paper §II-C / Eq. 5) on the route routeFor picks per
// typing: reduce-only, the reducer's exact sets over the planner's order
// (forward expansion + backward and top-down culling over the edge indexes
// — the GEMS evaluation strategy of §III-B), for a pattern with no
// cycle-closing edge and no cross-step condition; enumerate, collapsing
// enumerated bindings into per-step sets, for the others.
func (e *Engine) runAltSubgraph(prep *preparedAlt, s *sema.Select, sub *graph.Subgraph) error {
	pat := prep.alt.Pattern
	return e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
		m, err := e.newMatcher(pat, nt, et, prep.nodeCond, prep.edgeCond)
		if err != nil {
			return err
		}
		nodeSel, edgeSel := selectedSteps(pat, prep.alt.Proj)
		if r, _ := m.routeFor(s, prep.alt.Proj); r == routeReduceOnly {
			return m.capture(nodeSel, edgeSel, sub)
		}
		return m.enumerateIntoSubgraph(nodeSel, edgeSel, sub)
	})
}

// selectedSteps reports which pattern nodes/edges the projection captures
// (all of them for "select *").
func selectedSteps(pat *sema.Pattern, proj []sema.GraphProjItem) (nodes, edges []bool) {
	nodes = make([]bool, len(pat.Nodes))
	edges = make([]bool, len(pat.Edges))
	if proj == nil {
		for i := range nodes {
			nodes[i] = true
		}
		for i := range edges {
			edges[i] = true
		}
		return nodes, edges
	}
	for _, item := range proj {
		if item.Source < len(pat.Nodes) {
			nodes[item.Source] = true
		} else {
			edges[item.Source-len(pat.Nodes)] = true
		}
	}
	return nodes, edges
}

// enumerateIntoSubgraph collapses enumerated bindings into per-type
// vertex/edge sets.
func (m *matcher) enumerateIntoSubgraph(nodeSel, edgeSel []bool, sub *graph.Subgraph) error {
	pat := m.pat
	// Pre-create target bitmaps so parallel workers only touch existing
	// map entries (Bitmap.SetAtomic is lock-free).
	vsets := make([]*bitmap.Bitmap, len(pat.Nodes))
	for i := range pat.Nodes {
		if nodeSel[i] {
			vsets[i] = sub.VertexSet(m.nodeType[i])
		}
	}
	esets := make([]*bitmap.Bitmap, len(pat.Edges))
	for i, pe := range pat.Edges {
		if edgeSel[i] && pe.Regex == nil {
			esets[i] = sub.EdgeSet(m.edgeType[i])
		}
	}

	// Regex fragments contribute interior vertices/edges; collect the
	// bound endpoint pairs per shard and mark accepting paths afterwards.
	type pairSet map[uint32]map[uint32]bool
	regexPairs := make([]map[int]pairSet, m.maxShards())

	err := m.matchAll(func(shard int, b []uint32) error {
		for i := range pat.Nodes {
			if vsets[i] != nil {
				vsets[i].SetAtomic(b[i])
			}
		}
		for i, pe := range pat.Edges {
			if !edgeSel[i] {
				continue
			}
			if pe.Regex == nil {
				esets[i].SetAtomic(b[len(pat.Nodes)+pe.ID])
				continue
			}
			if regexPairs[shard] == nil {
				regexPairs[shard] = make(map[int]pairSet)
			}
			ps := regexPairs[shard][i]
			if ps == nil {
				ps = make(pairSet)
				regexPairs[shard][i] = ps
			}
			src, dst := b[pe.Src], b[pe.Dst]
			if ps[src] == nil {
				ps[src] = make(map[uint32]bool)
			}
			ps[src][dst] = true
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Merge regex endpoint pairs across shards, then mark accepting-path
	// interiors exactly: per distinct source vertex, against the set of
	// targets actually bound with it.
	merged := make(map[int]pairSet)
	for _, sm := range regexPairs {
		for ei, ps := range sm {
			if merged[ei] == nil {
				merged[ei] = make(pairSet)
			}
			for src, dsts := range ps {
				if merged[ei][src] == nil {
					merged[ei][src] = make(map[uint32]bool)
				}
				for d := range dsts {
					merged[ei][src][d] = true
				}
			}
		}
	}
	for ei, ps := range merged {
		pe := pat.Edges[ei]
		srcType, dstType := m.nodeType[pe.Src], m.nodeType[pe.Dst]
		for src, dsts := range ps {
			srcSet := bitmap.New(srcType.Count())
			srcSet.Set(src)
			dstSet := bitmap.New(dstType.Count())
			for d := range dsts {
				dstSet.Set(d)
			}
			if err := m.markRegexPath(pe, srcSet, dstSet, sub); err != nil {
				return err
			}
		}
	}
	return nil
}
