package exec

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"graql/internal/ast"
	"graql/internal/bitmap"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/plan"
	"graql/internal/sema"
)

// This file implements the paper's Eq. 5 evaluation strategy as
// data-parallel bitmap sweeps over the bidirectional edge indexes: a
// forward pass computes the vertices reachable at each step, and a
// backward pass culls "all vertices that have no path to vertices selected
// at that step". One reducer (reduce) runs both passes over the tree a
// visit order spans and feeds every result kind: an acyclic pattern
// captured into a subgraph reads its exact sets as the answer (after a
// third, top-down pass, the sets equal the collapse of full binding
// enumeration, property-tested), and binding enumeration walks inside
// them. With a cluster configured the same passes run, with the
// expansions they route there as BSP supersteps (cluster.go).

// expandFiltered expands fromSet across one concrete edge type in the
// given direction, applying the edge's self condition, in parallel over
// shards of the frontier: the expansion kernel (wstate.expandRange)
// sweeps a shard's words when the edge has no condition, expandWhere
// decides it edge by edge otherwise. Every sweep goroutine marks a bitmap
// of its own (handed from shard to shard through idle) and the bitmaps
// are united afterwards: two workers marking one small target set would
// spend their time handing its few cache lines back and forth. Backward
// without a reverse index, one pass over the edge set serves the whole
// set, so the sweep is one shard.
func (m *matcher) expandFiltered(pe *sema.PEdge, forward bool, fromSet *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	et := m.edgeType[pe.ID]
	landing := et.Src
	if forward {
		landing = et.Dst
	}
	cond := m.edgeSelf[pe.ID]
	members := fromSet.Count()
	work := int(walk(et, forward, members))
	if et.Index(forward) == nil {
		members = min(members, 1)
	}
	shards := m.frontierShards(fromSet.Len(), members, work)
	idle := make(chan *bitmap.Bitmap, m.workers) // at most m.workers shards run at once
	err := m.e.runSweep("expand ", et.Name, len(shards), m.workers, func(si int) error {
		var out *bitmap.Bitmap
		select {
		case out = <-idle:
		default:
			out = bitmap.New(landing.Count())
		}
		w := m.worker(cond != nil)
		var err error
		if cond == nil {
			err = w.expandRange(et, forward, fromSet, shards[si][0], shards[si][1], out)
		} else {
			err = m.expandWhere(w, pe.ID, et, forward, fromSet, shards[si][0], shards[si][1], out)
		}
		m.flush(w)
		idle <- out
		return err
	})
	if err != nil {
		return nil, err
	}
	close(idle)
	out := <-idle
	if out == nil { // an empty frontier has no shard
		out = bitmap.New(landing.Count())
	}
	for o := range idle {
		out.Or(o)
	}
	return out, nil
}

// expandWhere is wstate.expandRange for an edge with a self condition: a
// vertex joins out through an edge on which the condition holds, decided
// edge by edge until the vertex is in, over the direction's CSR resolved
// once — or, backward without a reverse index, over one pass of the edge
// list for the whole set.
func (m *matcher) expandWhere(w *wstate, edge int, et *graph.EdgeType, forward bool, from *bitmap.Bitmap, lo, hi uint32, out *bitmap.Bitmap) error {
	keep := func(t, eid uint32) error {
		if out.Get(t) {
			return nil
		}
		ok, err := m.edgeOK(w, edge, eid)
		if ok {
			out.Set(t)
		}
		return err
	}
	csr := et.Index(forward)
	if csr == nil {
		w.idxMiss++
		w.edges += int64(et.Count())
		for e, s := range et.EdgesInto(from) {
			if err := w.poll(); err != nil {
				return err
			}
			if err := keep(s, e); err != nil {
				return err
			}
		}
		return nil
	}
	var inner error
	from.ForEachRange(lo, hi, func(v uint32) {
		if inner != nil {
			return
		}
		if inner = w.poll(); inner != nil {
			return
		}
		nbr, ids := w.neighbors(csr, v, forward)
		for i, t := range nbr {
			if inner = keep(t, ids.At(i)); inner != nil {
				return
			}
		}
	})
	return inner
}

// expandStep expands a step set across one pattern edge, concrete or
// regex, from its source side when forward and from its target side
// otherwise: as one cluster superstep when onCluster routes the edge
// there, else on this process. pass ("forward", "backward", "forward
// cull" or "semi-join") names the pass it serves.
func (m *matcher) expandStep(pe *sema.PEdge, forward bool, fromSet *bitmap.Bitmap, pass string) (*bitmap.Bitmap, error) {
	switch {
	case m.onCluster(pe):
		return m.expandOnCluster(pe, forward, fromSet, pass)
	case pe.Regex == nil:
		return m.expandFiltered(pe, forward, fromSet)
	}
	w := m.worker(false)
	defer m.flush(w)
	return m.reachAcross(w, pe, forward, fromSet)
}

// reduce is the Eq. 5 evaluation over the tree that order spans (every
// visit with Via >= 0 hangs off a node bound before it). Forward, parents
// first: a step's set is its parent's set expanded across the connecting
// edge, narrowed to the step's seed and to the vertices on which its self
// condition is TRUE (restrict) — so a step condition is evaluated on every
// seeded vertex the forward pass reaches through tree edges, on no other,
// and an error it raises there fails the query. Backward, children first:
// a parent keeps the vertices its child's set expands back to. The sets
// come back indexed by pattern node; nil means unrestricted.
//
// With exact unset the passes serve enumeration and run only where they
// can remove something: a subtree holding no conditioned or seeded node is
// skipped and its sets stay nil (a free start above a conditioned step
// expands from its whole type, so the step is still decided on what the
// pass reaches), and no cull crosses an edge type that has no reverse
// index, where it would scan the whole edge set. Every set is
// then a superset of the vertices complete bindings put at its node. With
// exact set every step runs, every set is materialised, and a third pass
// runs top-down, parents first: a step below a parent with two or more
// children, or below a step this pass narrowed, keeps the vertices its
// parent's set expands to. After it every set is exact on a tree — every
// member occurs in some binding (Yannakakis' full reducer); on a chain
// read from one end the pass does nothing. It decides no step condition.
//
// Where an expansion runs — this process or the cluster — is expandStep's
// decision, one edge at a time; the cluster's span and statistics close
// with the reduction.
func (m *matcher) reduce(order []plan.Visit, exact bool) ([]*bitmap.Bitmap, error) {
	defer m.closeCluster()
	pat := m.pat
	parentOf := func(v plan.Visit) int {
		if v.Forward {
			return pat.Edges[v.Via].Src
		}
		return pat.Edges[v.Via].Dst
	}
	needed := make([]bool, len(pat.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if exact || m.nodeSelf[v.Node] != nil || m.seeds[v.Node] != nil {
			needed[v.Node] = true
		}
		if needed[v.Node] && v.Via >= 0 {
			needed[parentOf(v)] = true
		}
	}
	// Under EXPLAIN ANALYZE each pass step is traced with the cardinality
	// of the set it produces.
	fwdAction, cullAction := "reduce", "reduce"
	if exact {
		fwdAction, cullAction = "capture-expand", "capture-cull"
	}
	trace := func(action, what string, node, step int, set *bitmap.Bitmap, t0 time.Time) {
		if !m.e.tracing() || set == nil {
			return
		}
		detail := what + " " + stepName(pat, m.nodeType, node)
		if step > 0 {
			detail += fmt.Sprintf(" (Eq. 5 step %d)", step)
		}
		m.e.opSpan(action, detail).Record(int64(set.Count()), time.Since(t0))
	}

	reach := make([]*bitmap.Bitmap, len(pat.Nodes))
	for i, v := range order {
		if !needed[v.Node] {
			continue
		}
		if err := m.e.canceled(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var frontier *bitmap.Bitmap
		if v.Via >= 0 {
			from := reach[parentOf(v)]
			if from == nil {
				from = bitmap.NewFull(m.nodeType[parentOf(v)].Count())
			}
			var err error
			if frontier, err = m.expandStep(pat.Edges[v.Via], v.Forward, from, "forward"); err != nil {
				return nil, err
			}
		}
		set, err := m.restrict(v.Node, frontier)
		if err != nil {
			return nil, err
		}
		if set == nil && exact {
			set = bitmap.NewFull(m.nodeType[v.Node].Count())
		}
		reach[v.Node] = set
		switch {
		case v.Via >= 0:
			trace(fwdAction, "forward to", v.Node, i, set, t0)
		case exact:
			trace("scan", "start at", v.Node, 0, set, t0)
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		if v.Via < 0 || reach[v.Node] == nil {
			continue
		}
		if et := m.edgeType[v.Via]; !exact && v.Forward && et != nil && !et.HasReverse() {
			continue
		}
		if err := m.e.canceled(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		p := parentOf(v)
		back, err := m.expandStep(pat.Edges[v.Via], !v.Forward, reach[v.Node], "backward")
		if err != nil {
			return nil, err
		}
		if reach[p] != nil {
			back.And(reach[p])
		}
		reach[p] = back
		trace(cullAction, "backward cull at", p, 0, back, t0)
	}
	if !exact {
		return reach, nil
	}
	// A member of a step's set has an edge into its parent's set as the
	// forward pass left it; that parent member survives the backward pass
	// unless a sibling's cull or this pass removed it.
	kids := make([]int, len(pat.Nodes))
	for _, v := range order {
		if v.Via >= 0 {
			kids[parentOf(v)]++
		}
	}
	narrowed := make([]bool, len(pat.Nodes))
	for _, v := range order {
		if v.Via < 0 || (kids[parentOf(v)] < 2 && !narrowed[parentOf(v)]) {
			continue
		}
		if err := m.e.canceled(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		down, err := m.expandStep(pat.Edges[v.Via], v.Forward, reach[parentOf(v)], "forward cull")
		if err != nil {
			return nil, err
		}
		before := reach[v.Node].Count()
		down.And(reach[v.Node])
		narrowed[v.Node] = down.Count() < before
		reach[v.Node] = down
		trace(cullAction, "forward cull at", v.Node, 0, down, t0)
	}
	return reach, nil
}

// capture is the reduce-only route into a subgraph (routeFor): the
// reducer's exact sets over the planner's order are the selected steps'
// vertices, and the instances of a selected pattern edge between its
// endpoints' sets are its edges.
func (m *matcher) capture(nodeSel, edgeSel []bool, sub *graph.Subgraph) error {
	final, err := m.reduce(m.order, true)
	if err != nil {
		return err
	}
	// An empty set at any step empties the whole match.
	if slices.ContainsFunc(final, func(set *bitmap.Bitmap) bool { return !set.Any() }) {
		return nil
	}
	for i, set := range final {
		if nodeSel[i] {
			sub.VertexSet(m.nodeType[i]).Or(set)
		}
	}
	for _, pe := range m.pat.Edges {
		switch {
		case !edgeSel[pe.ID]:
		case pe.Regex != nil:
			err = m.markRegexPath(pe, final[pe.Src], final[pe.Dst], sub)
		default:
			err = m.markEdgesInSets(pe, m.edgeType[pe.ID], true, final[pe.Src], final[pe.Dst], sub)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// markEdgesInSets marks the instances of et, walked from the members of
// from (from et's source side when forward), that land in to and on which
// pe's self condition holds. Backward without a reverse index it walks the
// same edges forward, from to's members into from.
func (m *matcher) markEdgesInSets(pe *sema.PEdge, et *graph.EdgeType, forward bool, from, to *bitmap.Bitmap, sub *graph.Subgraph) error {
	if et.Index(forward) == nil {
		from, to, forward = to, from, true
	}
	csr := et.Index(forward)
	es := sub.EdgeSet(et)
	cond := m.edgeSelf[pe.ID]
	members := from.Count()
	shards := m.frontierShards(from.Len(), members, int(walk(et, forward, members)))
	return m.e.runSweep("mark edges ", et.Name, len(shards), m.workers, func(si int) error {
		w := m.worker(cond != nil)
		var inner error
		from.ForEachRange(shards[si][0], shards[si][1], func(v uint32) {
			if inner != nil {
				return
			}
			if inner = w.poll(); inner != nil {
				return
			}
			nbr, ids := w.neighbors(csr, v, forward)
			for i, t := range nbr {
				if !to.Get(t) {
					continue
				}
				e := ids.At(i)
				if cond != nil {
					ok, err := m.edgeOK(w, pe.ID, e)
					if err != nil {
						inner = err
						return
					}
					if !ok {
						continue
					}
				}
				es.SetAtomic(e)
			}
		})
		m.flush(w)
		return inner
	})
}

// The routes of a graph select, chosen per typing (DESIGN.md §4).
const (
	routeEnumerate  = "enumerate"   // bind every match inside the reduced sets
	routeReduceOnly = "reduce-only" // the exact sets: the projected step's, or a subgraph's
	routeCount      = "count"       // each projected vertex once per binding
)

// routeFor picks the route of select s over this matcher's alternative,
// which projects proj, and for a table the vertex step p it reads off. A
// subgraph is captured from the exact sets of any tree with no condition
// to decide per binding. A table needs the same of a tree of two edges or
// more, with no edge condition, one vertex step projected, no
// unrestricted leaf below p (every subtree has a reduced set to walk
// from) and, to count, no regex step.
func (m *matcher) routeFor(s *sema.Select, proj []sema.GraphProjItem) (string, int) {
	tree := len(m.deferred) == 0 && !slices.ContainsFunc(m.verifyAt, func(l []*sema.PEdge) bool { return len(l) > 0 })
	if s.Into.Kind == ast.IntoSubgraph {
		if tree {
			return routeReduceOnly, -1
		}
		return routeEnumerate, -1
	}
	p := len(m.pat.Nodes)
	if len(proj) > 0 {
		p = proj[0].Source
	}
	switch {
	case !tree, p >= len(m.pat.Nodes), len(m.pat.Edges) < 2,
		slices.ContainsFunc(proj, func(it sema.GraphProjItem) bool { return it.Source != p || it.Col < 0 }),
		slices.ContainsFunc(m.edgeSelf, func(c expr.Expr) bool { return c != nil }),
		!s.Distinct && slices.ContainsFunc(m.pat.Edges, func(pe *sema.PEdge) bool { return pe.Regex != nil }):
		return routeEnumerate, -1
	}
	deg := make([]int, len(m.pat.Nodes))
	for _, pe := range m.pat.Edges {
		deg[pe.Src]++
		deg[pe.Dst]++
	}
	for n, d := range deg {
		if d == 1 && n != p && m.nodeSelf[n] == nil && m.seeds[n] == nil {
			return routeEnumerate, -1
		}
	}
	if s.Distinct {
		return routeReduceOnly, p
	}
	return routeCount, p
}

// answer is the reduce-only and count routes: the reducer, then semiJoin
// rooted at p, whose exact set it returns as attribute rows, ascending and,
// counting, once per binding — enumeration's multiset, in vertex order.
func (m *matcher) answer(p int, route string) ([]uint32, error) {
	defer m.closeCluster()
	reach, err := m.reduce(m.order, false)
	if err != nil {
		return nil, err
	}
	s, err := m.semiJoin(reach, route, p, -1)
	if err != nil {
		return nil, err
	}
	s.list()
	_, rowOf := m.nodeType[p].AttrRows()
	rows := make([]uint32, 0, len(s.members))
	for i, v := range s.members {
		for c := s.at(i); c > 0; c-- {
			rows = append(rows, rowOf[v])
		}
	}
	return rows, nil
}

// stepSet is a node's set after semiJoin; counting, cnt[i] (nil: 1) is how
// many bindings of its subtree members[i] heads, found by rank.
type stepSet struct {
	set            *bitmap.Bitmap
	members, ranks []uint32 // listed on demand
	cnt            []uint64
}

func (s *stepSet) list() {
	if s.ranks == nil {
		s.members, s.ranks = s.set.Slice(), s.set.Ranks()
	}
}

func (s *stepSet) at(i int) uint64 {
	if s.cnt == nil {
		return 1
	}
	return s.cnt[i]
}

// passEdge is a child in semiJoin's tree; done: the parent's set is decided.
type passEdge struct {
	pe   *sema.PEdge
	node int
	s    stepSet
	done bool
}

// semiJoin reduces the tree hanging from x away from pattern edge via,
// children first, to x's members with an edge into every child's set, and
// counting, their products of children's counts summed along those edges.
// Without a set, x starts from a child's expanded back (expandStep).
func (m *matcher) semiJoin(reach []*bitmap.Bitmap, route string, x, via int) (stepSet, error) {
	var kids []passEdge
	for _, pe := range m.pat.Edges {
		if pe.ID != via && (pe.Src == x || pe.Dst == x) {
			kids = append(kids, passEdge{pe: pe, node: pe.Src + pe.Dst - x})
		}
	}
	cand := reach[x]
	for i := range kids {
		k := &kids[i]
		var err error
		if k.s, err = m.semiJoin(reach, route, k.node, k.pe.ID); err != nil {
			return stepSet{}, err
		}
		if cand == nil || k.pe.Regex != nil {
			t0 := time.Now()
			back, err := m.expandStep(k.pe, k.pe.Src != x, k.s.set, "semi-join")
			if err != nil {
				return stepSet{}, err
			}
			if cand != nil {
				back.And(cand)
			}
			cand, k.done = back, route != routeCount
			if m.e.tracing() {
				m.span(route, "expand back to %s from %s", x, k.node, back.Count(), t0)
			}
		}
	}
	if !slices.ContainsFunc(kids, func(k passEdge) bool { return !k.done }) {
		return stepSet{set: cand}, nil
	}
	xs := stepSet{set: cand}
	xs.list()
	cnt := make([]uint64, len(xs.members))
	for i := range cnt {
		cnt[i] = 1
	}
	for i := range kids {
		if k := &kids[i]; !k.done {
			if err := m.tally(route, x, &xs, cnt, k); err != nil {
				return stepSet{}, err
			}
		}
	}
	for i, v := range xs.members {
		if cnt[i] == 0 {
			cand.Clear(v)
		}
	}
	if route != routeCount {
		return stepSet{set: cand}, nil
	}
	return stepSet{set: cand, cnt: slices.DeleteFunc(cnt, func(c uint64) bool { return c == 0 })}, nil
}

// tally multiplies into cnt, aligned with x's candidates xs, child k's
// counts summed along each member's edges (not counting: 1 if it has one),
// walking xs's members or k's, whichever average degrees make shorter.
func (m *matcher) tally(route string, x int, xs *stepSet, cnt []uint64, k *passEdge) error {
	t0, et, fromX := time.Now(), m.edgeType[k.pe.ID], k.pe.Src == x
	k.s.list()
	probe := walk(et, fromX, len(xs.members)) <= walk(et, !fromX, len(k.s.members))
	if !et.HasReverse() {
		probe = fromX // only the forward index walks
	}
	from, to, forward := &k.s, xs, !fromX
	if probe {
		from, to, forward = xs, &k.s, fromX
	}
	csr := et.Index(forward)
	acc := make([]uint64, len(cnt))
	n := len(from.members)
	shards := m.frontierShards(n, n, int(walk(et, forward, n)))
	err := m.e.runSweep("semi-join ", et.Name, len(shards), m.workers, func(si int) error {
		w := m.worker(false)
		defer m.flush(w)
		for i := int(shards[si][0]); i < int(shards[si][1]); i++ {
			if err := w.poll(); err != nil {
				return err
			}
			nbr, _ := w.neighbors(csr, from.members[i], forward)
			for _, t := range nbr {
				if !to.set.Get(t) {
					continue
				}
				j := to.set.Rank(to.ranks, t)
				if !probe {
					atomic.AddUint64(&acc[j], k.s.at(i))
				} else if acc[i] += k.s.at(j); route != routeCount {
					break
				}
			}
		}
		return nil
	})
	kept := 0
	for i := range cnt {
		if cnt[i] *= acc[i]; cnt[i] > 0 {
			kept++
		}
	}
	m.span(route, "semi-join %s with %s", x, k.node, kept, t0)
	return err
}

// walk estimates the index entries expanding n vertices across et visits,
// from its source side when forward (no reverse index: one pass over the
// edge set).
func walk(et *graph.EdgeType, forward bool, n int) float64 {
	switch {
	case forward:
		return float64(n) * et.AvgOutDegree()
	case et.HasReverse():
		return float64(n) * et.AvgInDegree()
	}
	return float64(et.Count())
}

// span traces a step of semiJoin under EXPLAIN ANALYZE: what it did across
// nodes a and b, and the size of the set it left.
func (m *matcher) span(route, what string, a, b, rows int, t0 time.Time) {
	if m.e.tracing() {
		detail := fmt.Sprintf(what, stepName(m.pat, m.nodeType, a), stepName(m.pat, m.nodeType, b))
		m.e.opSpan(route, detail).Record(int64(rows), time.Since(t0))
	}
}
