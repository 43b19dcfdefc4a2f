package exec

import (
	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/plan"
	"graql/internal/sema"
)

// Path regular expressions (paper §II-B4, Fig. 10) execute as a BFS over
// the product of the typed multigraph with a small NFA compiled from the
// fragment. An NFA state is (pos, rep): pos steps consumed within the
// current fragment iteration and rep completed iterations (rep saturates
// at Min for unbounded closures, so "*"/"+" machines stay finite). The
// machine accepts at (0, rep) with rep >= Min.
type rxMachine struct {
	rx  *sema.Regex
	k   int // fragment length in (edge, vertex) steps
	cap int // highest tracked rep value
}

func newRxMachine(rx *sema.Regex) *rxMachine {
	// sema stores one RegexStep per hop (edge spec + landing vertex
	// spec), so the fragment length is len(Steps).
	m := &rxMachine{rx: rx, k: len(rx.Steps)}
	if rx.Max >= 0 {
		m.cap = rx.Max
	} else {
		m.cap = rx.Min
	}
	return m
}

func (m *rxMachine) numStates() int { return m.k * (m.cap + 1) }

func (m *rxMachine) stateID(pos, rep int) int { return pos*(m.cap+1) + rep }

func (m *rxMachine) posRep(state int) (pos, rep int) {
	return state / (m.cap + 1), state % (m.cap + 1)
}

func (m *rxMachine) accept(pos, rep int) bool { return pos == 0 && rep >= m.rx.Min }

// canConsume reports whether a step may be consumed from (pos, rep);
// starting a new fragment iteration is gated by the Max bound.
func (m *rxMachine) canConsume(pos, rep int) bool {
	return pos != 0 || m.rx.Max < 0 || rep < m.rx.Max
}

// next returns the state after consuming the step at pos.
func (m *rxMachine) next(pos, rep int) (int, int) {
	pos++
	if pos == m.k {
		rep++
		if rep > m.cap {
			rep = m.cap
		}
		return 0, rep
	}
	return pos, rep
}

// stateVT keys the product-BFS visited sets.
type stateVT struct {
	state int
	vt    *graph.VertexType
}

type stateSets map[stateVT]*bitmap.Bitmap

func (s stateSets) get(state int, vt *graph.VertexType) *bitmap.Bitmap {
	b, ok := s[stateVT{state, vt}]
	if !ok {
		b = bitmap.New(vt.Count())
		s[stateVT{state, vt}] = b
	}
	return b
}

// addNew ors src into the set and returns a bitmap of genuinely new bits
// (nil if nothing new).
func (s stateSets) addNew(state int, vt *graph.VertexType, src *bitmap.Bitmap) *bitmap.Bitmap {
	cur := s.get(state, vt)
	fresh := src.Clone()
	fresh.AndNot(cur)
	if !fresh.Any() {
		return nil
	}
	cur.Or(fresh)
	return fresh
}

// expandSet traverses one edge type from every vertex in `from`,
// returning the reached set on the other side. forward follows the edge
// type's declared direction.
func expandSet(et *graph.EdgeType, forward bool, from *bitmap.Bitmap) *bitmap.Bitmap {
	landing := et.Src
	if forward {
		landing = et.Dst
	}
	out := bitmap.New(landing.Count())
	from.ForEach(func(v uint32) {
		nbr, _, _ := et.Adjacent(v, forward)
		for _, t := range nbr {
			out.Set(t)
		}
	})
	return out
}

// stepEdgeTypes lists the edge types a regex step may traverse from a
// vertex of type vt (variant specs match every type with compatible
// endpoints, the paper's Eq. 11 union).
func (m *matcher) stepEdgeTypes(spec sema.RegexStep, vt *graph.VertexType) []*graph.EdgeType {
	var cands []*graph.EdgeType
	if spec.Edge != nil {
		cands = []*graph.EdgeType{spec.Edge}
	} else {
		cands = m.g.EdgeTypes()
	}
	var out []*graph.EdgeType
	for _, et := range cands {
		var landing *graph.VertexType
		if spec.Out {
			if et.Src != vt {
				continue
			}
			landing = et.Dst
		} else {
			if et.Dst != vt {
				continue
			}
			landing = et.Src
		}
		if spec.Vtx != nil && spec.Vtx != landing {
			continue
		}
		out = append(out, et)
	}
	return out
}

// forwardReach runs the product BFS from srcSet (vertices of srcType) and
// returns the visited sets; accepted landing vertices are those in visited
// accept states.
func (m *matcher) forwardReach(rx *sema.Regex, srcType *graph.VertexType, srcSet *bitmap.Bitmap) (*rxMachine, stateSets) {
	mc := newRxMachine(rx)
	visited := stateSets{}
	type item struct {
		state int
		vt    *graph.VertexType
	}
	var queue []item
	if fresh := visited.addNew(mc.stateID(0, 0), srcType, srcSet); fresh != nil {
		queue = append(queue, item{mc.stateID(0, 0), srcType})
	}
	// A dead context drains the queue early; callers observe the abort at
	// their next poll and discard the partial reachability sets.
	for len(queue) > 0 && contextErr(m.e.ctx) == nil {
		it := queue[0]
		queue = queue[1:]
		pos, rep := mc.posRep(it.state)
		if !mc.canConsume(pos, rep) {
			continue
		}
		spec := rx.Steps[pos]
		cur := visited.get(it.state, it.vt)
		nextPos, nextRep := mc.next(pos, rep)
		nextState := mc.stateID(nextPos, nextRep)
		for _, et := range m.stepEdgeTypes(spec, it.vt) {
			landing := et.Dst
			if !spec.Out {
				landing = et.Src
			}
			reached := expandSet(et, spec.Out, cur)
			if fresh := visited.addNew(nextState, landing, reached); fresh != nil {
				queue = append(queue, item{nextState, landing})
			}
		}
	}
	return mc, visited
}

// acceptedOfType collects the accepted vertices of one anchor type from
// forward visited sets.
func acceptedOfType(mc *rxMachine, visited stateSets, vt *graph.VertexType) *bitmap.Bitmap {
	out := bitmap.New(vt.Count())
	for rep := 0; rep <= mc.cap; rep++ {
		if !mc.accept(0, rep) {
			continue
		}
		if b, ok := visited[stateVT{mc.stateID(0, rep), vt}]; ok {
			out.Or(b)
		}
	}
	return out
}

// backwardReach runs the product BFS backwards from dstSet (vertices of
// dstType seeded at every accept state); visited[(0,0)][srcType] is then
// the set of sources with an accepting path into dstSet.
func (m *matcher) backwardReach(rx *sema.Regex, dstType *graph.VertexType, dstSet *bitmap.Bitmap) (*rxMachine, stateSets) {
	mc := newRxMachine(rx)
	visited := stateSets{}
	type item struct {
		state int
		vt    *graph.VertexType
	}
	var queue []item
	for rep := 0; rep <= mc.cap; rep++ {
		if !mc.accept(0, rep) {
			continue
		}
		if fresh := visited.addNew(mc.stateID(0, rep), dstType, dstSet); fresh != nil {
			queue = append(queue, item{mc.stateID(0, rep), dstType})
		}
	}
	for len(queue) > 0 && contextErr(m.e.ctx) == nil {
		it := queue[0]
		queue = queue[1:]
		// Find forward transitions landing in it.state and walk them
		// backwards: predecessors c with c→t (Out) or t→c (!Out).
		for pos := 0; pos < mc.k; pos++ {
			for rep := 0; rep <= mc.cap; rep++ {
				if !mc.canConsume(pos, rep) {
					continue
				}
				np, nr := mc.next(pos, rep)
				if mc.stateID(np, nr) != it.state {
					continue
				}
				spec := rx.Steps[pos]
				if spec.Vtx != nil && spec.Vtx != it.vt {
					continue
				}
				landingSet := visited.get(it.state, it.vt)
				// Enumerate edge types whose landing side is it.vt.
				var cands []*graph.EdgeType
				if spec.Edge != nil {
					cands = []*graph.EdgeType{spec.Edge}
				} else {
					cands = m.g.EdgeTypes()
				}
				for _, et := range cands {
					var predType *graph.VertexType
					var predSet *bitmap.Bitmap
					if spec.Out {
						if et.Dst != it.vt {
							continue
						}
						predType = et.Src
						predSet = expandSet(et, false, landingSet)
					} else {
						if et.Src != it.vt {
							continue
						}
						predType = et.Dst
						predSet = expandSet(et, true, landingSet)
					}
					prevState := mc.stateID(pos, rep)
					if fresh := visited.addNew(prevState, predType, predSet); fresh != nil {
						queue = append(queue, item{prevState, predType})
					}
				}
			}
		}
	}
	return mc, visited
}

// cachedReach computes (and caches per worker) the anchor-type vertex set
// reachable across a regex pattern edge from a single bound vertex.
func (w *wstate) cachedReach(pe *sema.PEdge, from uint32, forward bool) *bitmap.Bitmap {
	key := regexKey{edge: pe.ID, from: from, forward: forward}
	if w.regexReach == nil {
		w.regexReach = make(map[regexKey]*bitmap.Bitmap)
	}
	if b, ok := w.regexReach[key]; ok {
		return b
	}
	m := w.m
	var out *bitmap.Bitmap
	if forward {
		srcType := m.nodeType[pe.Src]
		single := bitmap.New(srcType.Count())
		single.Set(from)
		mc, visited := m.forwardReach(pe.Regex, srcType, single)
		out = acceptedOfType(mc, visited, m.nodeType[pe.Dst])
	} else {
		dstType := m.nodeType[pe.Dst]
		single := bitmap.New(dstType.Count())
		single.Set(from)
		mc, visited := m.backwardReach(pe.Regex, dstType, single)
		srcType := m.nodeType[pe.Src]
		if b, ok := visited[stateVT{mc.stateID(0, 0), srcType}]; ok {
			out = b
		} else {
			out = bitmap.New(srcType.Count())
		}
	}
	w.regexReach[key] = out
	return out
}

// regexConnected reports whether dst is reachable from src across the
// regex pattern edge.
func (m *matcher) regexConnected(w *wstate, pe *sema.PEdge, src, dst uint32) (bool, error) {
	return w.cachedReach(pe, src, true).Get(dst), nil
}

// expandRegex binds the far endpoint of a regex pattern edge from its
// bound endpoint.
func (m *matcher) expandRegex(w *wstate, depth int, v plan.Visit, pe *sema.PEdge, emit func([]uint32) error) error {
	var node int
	var reach *bitmap.Bitmap
	if v.Forward {
		node = pe.Dst
		reach = w.cachedReach(pe, w.b[pe.Src], true)
	} else {
		node = pe.Src
		reach = w.cachedReach(pe, w.b[pe.Dst], false)
	}
	within := m.reach[node]
	var inner error
	reach.ForEach(func(x uint32) {
		if inner != nil || (within != nil && !within.Get(x)) {
			return
		}
		w.b[node] = x
		if err := m.afterBind(w, depth, emit); err != nil {
			inner = err
		}
		w.b[node] = NoBind
	})
	return inner
}

// markRegexPath adds to sub every vertex and edge lying on some accepting
// path of the regex fragment between srcSet and dstSet (used when
// capturing a query's full matching subgraph, Eq. 5 / Fig. 11).
func (m *matcher) markRegexPath(pe *sema.PEdge, srcSet, dstSet *bitmap.Bitmap, sub *graph.Subgraph) {
	rx := pe.Regex
	mc, f := m.forwardReach(rx, m.nodeType[pe.Src], srcSet)
	_, b := m.backwardReach(rx, m.nodeType[pe.Dst], dstSet)

	// Useful vertices: on both a forward and backward path at the same
	// state.
	for key, fb := range f {
		bb, ok := b[key]
		if !ok {
			continue
		}
		both := fb.Clone()
		both.And(bb)
		if both.Any() {
			sub.VertexSet(key.vt).Or(both)
		}
	}

	// Useful edges: instances realising a transition whose tail is
	// forward-reachable and whose head is backward-reachable.
	for pos := 0; pos < mc.k; pos++ {
		spec := rx.Steps[pos]
		for rep := 0; rep <= mc.cap; rep++ {
			if !mc.canConsume(pos, rep) {
				continue
			}
			s := mc.stateID(pos, rep)
			np, nr := mc.next(pos, rep)
			s2 := mc.stateID(np, nr)
			for key, tail := range f {
				if key.state != s {
					continue
				}
				for _, et := range m.stepEdgeTypes(spec, key.vt) {
					landing := et.Dst
					if !spec.Out {
						landing = et.Src
					}
					head, ok := b[stateVT{s2, landing}]
					if !ok {
						continue
					}
					markEdgesBetween(et, spec.Out, tail, head, sub)
				}
			}
		}
	}
}

// markEdgesBetween marks edge instances of et from tail to head (in the
// given traversal direction).
func markEdgesBetween(et *graph.EdgeType, out bool, tail, head *bitmap.Bitmap, sub *graph.Subgraph) {
	es := sub.EdgeSet(et)
	tail.ForEach(func(v uint32) {
		nbr, eids, _ := et.Adjacent(v, out)
		for i, t := range nbr {
			if head.Get(t) {
				es.Set(eids[i])
			}
		}
	})
}
