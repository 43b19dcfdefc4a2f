package exec

import (
	"fmt"
	"time"

	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/sema"
)

// This file implements the paper's Eq. 5 evaluation strategy for linear
// path queries as data-parallel bitmap sweeps over the bidirectional edge
// indexes: a forward pass computes the vertices reachable at each step,
// and a backward pass culls "all vertices that have no path to vertices
// selected at that step". For chains the culled per-step sets equal the
// collapse of full binding enumeration (property-tested), at a fraction of
// the cost — this is the GEMS fast path for "into subgraph" queries.

// chainEdge returns the unique pattern edge connecting nodes a and b.
func chainEdge(pat *sema.Pattern, a, b int) *sema.PEdge {
	for _, e := range pat.Edges {
		if (e.Src == a && e.Dst == b) || (e.Src == b && e.Dst == a) {
			return e
		}
	}
	panic(fmt.Sprintf("graql: no pattern edge between nodes %d and %d", a, b))
}

// expandFiltered expands fromSet across one concrete edge type in the
// given direction, applying the edge's self condition, in parallel over
// frontier shards into an atomically updated target bitmap.
func (m *matcher) expandFiltered(pe *sema.PEdge, forward bool, fromSet *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	et := m.edgeType[pe.ID]
	var outSize int
	if forward {
		outSize = et.Dst.Count()
	} else {
		outSize = et.Src.Count()
	}
	out := bitmap.New(outSize)
	cond := m.edgeSelf[pe.ID]

	shards := shardRanges(fromSet.Len(), m.workers*4)
	err := m.e.runSweep(fmt.Sprintf("expand %s", et.Name), len(shards), m.workers, func(si int) error {
		w := &wstate{m: m, b: make([]uint32, len(m.pat.Nodes)+len(m.pat.Edges))}
		var inner error
		visit := func(t, eid uint32) {
			if inner != nil || out.GetAtomic(t) {
				return
			}
			if cond != nil {
				ok, err := m.edgeOK(w, pe.ID, eid)
				if err != nil {
					inner = err
					return
				}
				if !ok {
					return
				}
			}
			out.SetAtomic(t)
		}
		fromSet.ForEachRange(shards[si][0], shards[si][1], func(v uint32) {
			if inner != nil {
				return
			}
			if err := w.poll(); err != nil {
				inner = err
				return
			}
			nbr, eids := w.adjacent(et, v, forward)
			for i := range nbr {
				visit(nbr[i], eids[i])
			}
		})
		m.flush(w)
		return inner
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// expandStep expands a step set across one chain edge (concrete or regex)
// from node `from` to node `to`, intersecting with the target node's own
// candidate set.
func (m *matcher) expandStep(pe *sema.PEdge, from, to int, fromSet *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	var reached *bitmap.Bitmap
	if pe.Regex != nil {
		if pe.Src == from {
			mc, visited := m.forwardReach(pe.Regex, m.nodeType[from], fromSet)
			reached = acceptedOfType(mc, visited, m.nodeType[to])
		} else {
			mc, visited := m.backwardReach(pe.Regex, m.nodeType[from], fromSet)
			if b, ok := visited[stateVT{mc.stateID(0, 0), m.nodeType[to]}]; ok {
				reached = b.Clone()
			} else {
				reached = bitmap.New(m.nodeType[to].Count())
			}
		}
		// The BFS drains early on a dead context; reject its partial sets.
		if err := m.e.canceled(); err != nil {
			return nil, err
		}
	} else {
		var err error
		reached, err = m.expandFiltered(pe, pe.Src == from, fromSet)
		if err != nil {
			return nil, err
		}
	}
	cand, err := m.candidates(to)
	if err != nil {
		return nil, err
	}
	reached.And(cand)
	return reached, nil
}

// cullChainSets runs the forward and backward passes over a chain and
// returns the final per-node matched sets (indexed by pattern node id).
// Under EXPLAIN ANALYZE each pass step is traced with the cardinality of
// the step set it produces.
func (m *matcher) cullChainSets(chain []int) ([]*bitmap.Bitmap, error) {
	if m.clusterChainEligible(chain) {
		return m.cullChainSetsCluster(chain)
	}
	pat := m.pat
	fwd := make([]*bitmap.Bitmap, len(pat.Nodes))
	t0 := time.Now()
	start, err := m.candidates(chain[0])
	if err != nil {
		return nil, err
	}
	fwd[chain[0]] = start.Clone()
	m.e.opSpan("scan", fmt.Sprintf("start at %s", stepName(pat, m.nodeType, chain[0]))).
		Record(int64(start.Count()), time.Since(t0))
	for k := 0; k+1 < len(chain); k++ {
		if err := m.e.canceled(); err != nil {
			return nil, err
		}
		a, b := chain[k], chain[k+1]
		pe := chainEdge(pat, a, b)
		t0 = time.Now()
		next, err := m.expandStep(pe, a, b, fwd[a])
		if err != nil {
			return nil, err
		}
		fwd[b] = next
		m.e.opSpan("chain-expand", fmt.Sprintf("forward to %s (Eq. 5 step %d)", stepName(pat, m.nodeType, b), k+1)).
			Record(int64(next.Count()), time.Since(t0))
	}
	final := make([]*bitmap.Bitmap, len(pat.Nodes))
	last := chain[len(chain)-1]
	final[last] = fwd[last]
	for k := len(chain) - 2; k >= 0; k-- {
		if err := m.e.canceled(); err != nil {
			return nil, err
		}
		a, b := chain[k], chain[k+1]
		pe := chainEdge(pat, a, b)
		t0 = time.Now()
		back, err := m.expandStep(pe, b, a, final[b])
		if err != nil {
			return nil, err
		}
		back.And(fwd[a])
		final[a] = back
		m.e.opSpan("chain-cull", fmt.Sprintf("backward cull at %s", stepName(pat, m.nodeType, a))).
			Record(int64(back.Count()), time.Since(t0))
	}
	return final, nil
}

// cullChainIntoSubgraph evaluates a chain pattern with the bitmap engine
// and captures the selected steps into sub.
func (m *matcher) cullChainIntoSubgraph(chain []int, nodeSel, edgeSel []bool, sub *graph.Subgraph) error {
	final, err := m.cullChainSets(chain)
	if err != nil {
		return err
	}
	// An empty set at any step empties the whole match.
	for _, id := range chain {
		if !final[id].Any() {
			return nil
		}
	}
	for i := range m.pat.Nodes {
		if nodeSel[i] {
			sub.VertexSet(m.nodeType[i]).Or(final[i])
		}
	}
	for k := 0; k+1 < len(chain); k++ {
		a, b := chain[k], chain[k+1]
		pe := chainEdge(m.pat, a, b)
		if !edgeSel[pe.ID] {
			continue
		}
		if pe.Regex != nil {
			m.markRegexPath(pe, final[pe.Src], final[pe.Dst], sub)
			continue
		}
		if err := m.markEdgesInSets(pe, final[pe.Src], final[pe.Dst], sub); err != nil {
			return err
		}
	}
	return nil
}

// markEdgesInSets marks edge instances whose endpoints lie in the final
// step sets and whose condition holds.
func (m *matcher) markEdgesInSets(pe *sema.PEdge, srcSet, dstSet *bitmap.Bitmap, sub *graph.Subgraph) error {
	et := m.edgeType[pe.ID]
	es := sub.EdgeSet(et)
	cond := m.edgeSelf[pe.ID]
	shards := shardRanges(srcSet.Len(), m.workers*4)
	return m.e.runSweep(fmt.Sprintf("mark edges %s", et.Name), len(shards), m.workers, func(si int) error {
		w := &wstate{m: m, b: make([]uint32, len(m.pat.Nodes)+len(m.pat.Edges))}
		var inner error
		srcSet.ForEachRange(shards[si][0], shards[si][1], func(v uint32) {
			if inner != nil {
				return
			}
			if err := w.poll(); err != nil {
				inner = err
				return
			}
			nbr, eids := w.adjacent(et, v, true)
			for i, t := range nbr {
				if !dstSet.Get(t) {
					continue
				}
				if cond != nil {
					ok, err := m.edgeOK(w, pe.ID, eids[i])
					if err != nil {
						inner = err
						return
					}
					if !ok {
						continue
					}
				}
				es.SetAtomic(eids[i])
			}
		})
		m.flush(w)
		return inner
	})
}
