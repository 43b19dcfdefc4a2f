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

// addNew ors src, which the caller gives up, into the set and returns the
// bits of src that are genuinely new (nil if none).
func (s stateSets) addNew(state int, vt *graph.VertexType, src *bitmap.Bitmap) *bitmap.Bitmap {
	cur := s.get(state, vt)
	src.AndNot(cur)
	if !src.Any() {
		return nil
	}
	cur.Or(src)
	return src
}

// bfsStep is one product-BFS expansion: the vertices et leads to from the
// members of from (forward: along et's direction), swept by the expansion
// kernel and counted and polled like every sweep.
func (w *wstate) bfsStep(et *graph.EdgeType, forward bool, from *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	landing := et.Src
	if forward {
		landing = et.Dst
	}
	out := bitmap.New(landing.Count())
	return out, w.expandRange(et, forward, from, 0, uint32(from.Len()), out)
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

// forwardReach runs the product BFS from srcSet (vertices of srcType) on
// worker w and returns the visited sets; accepted landing vertices are
// those in visited accept states. A dead context aborts it with its error.
func (m *matcher) forwardReach(w *wstate, rx *sema.Regex, srcType *graph.VertexType, srcSet *bitmap.Bitmap) (*rxMachine, stateSets, error) {
	mc := newRxMachine(rx)
	visited := stateSets{}
	type item struct {
		state int
		vt    *graph.VertexType
	}
	var queue []item
	if fresh := visited.addNew(mc.stateID(0, 0), srcType, srcSet.Clone()); fresh != nil {
		queue = append(queue, item{mc.stateID(0, 0), srcType})
	}
	for len(queue) > 0 {
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
			reached, err := w.bfsStep(et, spec.Out, cur)
			if err != nil {
				return nil, nil, err
			}
			if fresh := visited.addNew(nextState, landing, reached); fresh != nil {
				queue = append(queue, item{nextState, landing})
			}
		}
	}
	return mc, visited, nil
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
// dstType seeded at every accept state) on worker w;
// visited[(0,0)][srcType] is then the set of sources with an accepting
// path into dstSet. A dead context aborts it with its error.
func (m *matcher) backwardReach(w *wstate, rx *sema.Regex, dstType *graph.VertexType, dstSet *bitmap.Bitmap) (*rxMachine, stateSets, error) {
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
		if fresh := visited.addNew(mc.stateID(0, rep), dstType, dstSet.Clone()); fresh != nil {
			queue = append(queue, item{mc.stateID(0, rep), dstType})
		}
	}
	for len(queue) > 0 {
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
					predType, landing := et.Src, et.Dst
					if !spec.Out {
						predType, landing = et.Dst, et.Src
					}
					if landing != it.vt {
						continue
					}
					predSet, err := w.bfsStep(et, !spec.Out, landingSet)
					if err != nil {
						return nil, nil, err
					}
					prevState := mc.stateID(pos, rep)
					if fresh := visited.addNew(prevState, predType, predSet); fresh != nil {
						queue = append(queue, item{prevState, predType})
					}
				}
			}
		}
	}
	return mc, visited, nil
}

// reachAcross returns the anchor-type vertices reachable across regex
// pattern edge pe from the members of from — its source side when
// forward — by one product BFS on worker w.
func (m *matcher) reachAcross(w *wstate, pe *sema.PEdge, forward bool, from *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	src, dst := m.nodeType[pe.Src], m.nodeType[pe.Dst]
	if forward {
		mc, visited, err := m.forwardReach(w, pe.Regex, src, from)
		if err != nil {
			return nil, err
		}
		return acceptedOfType(mc, visited, dst), nil
	}
	mc, visited, err := m.backwardReach(w, pe.Regex, dst, from)
	if err != nil {
		return nil, err
	}
	if b, ok := visited[stateVT{mc.stateID(0, 0), src}]; ok {
		return b, nil
	}
	return bitmap.New(src.Count()), nil
}

// cachedReach computes (and caches per worker) the anchor-type vertex set
// reachable across a regex pattern edge from a single bound vertex.
func (w *wstate) cachedReach(pe *sema.PEdge, from uint32, forward bool) (*bitmap.Bitmap, error) {
	key := regexKey{edge: pe.ID, from: from, forward: forward}
	if w.regexReach == nil {
		w.regexReach = make(map[regexKey]*bitmap.Bitmap)
	}
	if b, ok := w.regexReach[key]; ok {
		return b, nil
	}
	vt := w.m.nodeType[pe.Dst]
	if forward {
		vt = w.m.nodeType[pe.Src]
	}
	single := bitmap.New(vt.Count())
	single.Set(from)
	out, err := w.m.reachAcross(w, pe, forward, single)
	if err != nil {
		return nil, err
	}
	w.regexReach[key] = out
	return out, nil
}

// expandRegex binds the far endpoint of a regex pattern edge from its
// bound endpoint.
func (m *matcher) expandRegex(w *wstate, depth int, v plan.Visit, pe *sema.PEdge, emit func([]uint32) error) error {
	node, from := pe.Dst, w.b[pe.Src]
	if !v.Forward {
		node, from = pe.Src, w.b[pe.Dst]
	}
	reach, err := w.cachedReach(pe, from, v.Forward)
	if err != nil {
		return err
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
func (m *matcher) markRegexPath(pe *sema.PEdge, srcSet, dstSet *bitmap.Bitmap, sub *graph.Subgraph) error {
	rx := pe.Regex
	w := m.worker(false)
	var b stateSets
	mc, f, err := m.forwardReach(w, rx, m.nodeType[pe.Src], srcSet)
	if err == nil {
		_, b, err = m.backwardReach(w, rx, m.nodeType[pe.Dst], dstSet)
	}
	m.flush(w)
	if err != nil {
		return err
	}
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
					if err := m.markEdgesInSets(pe, et, spec.Out, tail, head, sub); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
