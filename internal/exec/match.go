package exec

import (
	"fmt"
	"math"
	"slices"
	"time"

	"graql/internal/bitmap"
	"graql/internal/cluster"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/obs"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// NoBind marks an unbound slot in a partial binding.
const NoBind = ^uint32(0)

// matcher evaluates one pattern under one concrete variant typing: it
// reduces the pattern's per-step vertex sets set-at-a-time (reduce, Eq. 5)
// and enumerates the bindings inside them, in a planner-chosen order, in
// parallel over shards of the first step's set.
type matcher struct {
	e   *Engine
	g   *graph.Graph
	pat *sema.Pattern

	// Concrete typing for this run (variant steps resolved).
	nodeType []*graph.VertexType
	edgeType []*graph.EdgeType // nil for regex edges

	// Parameter-bound step conditions split into self-only parts (a
	// node's runs as a compiled filter over its frontier in reduce, an
	// edge's inline during expansion) and cross-step parts (deferred until
	// all referenced steps are bound).
	nodeSelf []expr.Expr
	edgeSelf []expr.Expr
	deferred []deferredCond

	// seeds restricts a node's candidates to a prior subgraph result.
	seeds []*bitmap.Bitmap

	order     []plan.Visit
	posOfNode []int
	// verifyAt[d] lists pattern edges that close a cycle once the node
	// at order position d is bound; they are checked (and their edge ids
	// enumerated) at that depth.
	verifyAt [][]*sema.PEdge

	// reach[node] is the node's reduced set (reduce), inside which matchAll
	// enumerates: every vertex a binding puts at the node is in it. nil
	// means unrestricted — every vertex of the node's type.
	reach []*bitmap.Bitmap

	// spans traces one operator per order position when the engine runs
	// under EXPLAIN ANALYZE (nil otherwise). spans[d] counts the bindings
	// that survive verification and deferred conditions at depth d; times
	// are inclusive of deeper steps and summed across parallel workers.
	spans []*obs.Span

	// cl and clSpan are the cluster handle and span of the reduction in
	// progress (cluster.go), nil until its first superstep.
	cl     *cluster.Cluster
	clSpan *obs.Span

	workers int
}

type deferredCond struct {
	cond  expr.Expr
	depth int
}

// wstate is per-goroutine matcher state: the current partial binding plus
// a cache of regex reachability results.
type wstate struct {
	m *matcher
	b []uint32
	// regexReach caches accepted-target sets per (pattern edge, source
	// vertex, direction).
	regexReach map[regexKey]*bitmap.Bitmap
	// Batched metric counters, flushed per shard (matcher.flush).
	scanned int64 // candidate rows visited
	edges   int64 // edge-index entries walked
	idxHit  int64 // reverse traversals served by a reverse index
	idxMiss int64 // reverse traversals degraded to edge scans
	// tick drives the amortised cooperative cancellation poll (cancel.go);
	// reported is the scanned+edges watermark already pushed to the live
	// query table by that poll.
	tick     uint32
	reported int64
}

// adjacent is graph.EdgeType.Adjacent plus the traversal accounting:
// index entries walked (the whole edge list when a backward step has no
// reverse index to use) and reverse-index hits and misses.
func (w *wstate) adjacent(et *graph.EdgeType, v uint32, forward bool) (nbr, eids []uint32) {
	nbr, eids, indexed := et.Adjacent(v, forward)
	switch {
	case !indexed:
		w.idxMiss++
		w.edges += int64(et.Count())
		return nbr, eids
	case !forward:
		w.idxHit++
	}
	w.edges += int64(len(nbr))
	return nbr, eids
}

type regexKey struct {
	edge    int
	from    uint32
	forward bool
}

// Lookup implements expr.Env over the current binding.
func (w *wstate) Lookup(source, col int) value.Value {
	nn := len(w.m.pat.Nodes)
	if source < nn {
		return w.m.nodeType[source].AttrValue(w.b[source], col)
	}
	ei := source - nn
	return w.m.edgeType[ei].AttrValue(w.b[source], col)
}

// newMatcher prepares a matcher for one concrete typing, which it copies
// (forEachTyping reuses its slices). Conditions must already be
// parameter-bound.
func (e *Engine) newMatcher(pat *sema.Pattern, nodeType []*graph.VertexType,
	edgeType []*graph.EdgeType, nodeCond, edgeCond []expr.Expr) (*matcher, error) {

	seeds, err := e.seedsFor(pat, nodeType)
	if err != nil {
		return nil, err
	}
	m := &matcher{
		e: e, g: e.version().Graph(), pat: pat,
		nodeType: slices.Clone(nodeType), edgeType: slices.Clone(edgeType),
		seeds:   seeds,
		workers: e.Opts.workers(),
	}
	m.order = plan.Order(pat, &catalogEstimator{m: m, nodeCond: nodeCond})
	m.posOfNode = make([]int, len(pat.Nodes))
	for i, v := range m.order {
		m.posOfNode[v.Node] = i
	}

	// Split conditions into self vs deferred.
	m.nodeSelf = make([]expr.Expr, len(pat.Nodes))
	m.edgeSelf = make([]expr.Expr, len(pat.Edges))
	nn := len(pat.Nodes)
	depthOfSource := func(s int) int {
		if s < nn {
			return m.posOfNode[s]
		}
		e := pat.Edges[s-nn]
		d := m.posOfNode[e.Src]
		if p := m.posOfNode[e.Dst]; p > d {
			d = p
		}
		return d
	}
	for i, cond := range nodeCond {
		for _, c := range expr.Conjuncts(cond) {
			srcs := refSourcesOf(c)
			if len(srcs) == 1 && srcs[0] == i {
				m.nodeSelf[i] = expr.AndAll([]expr.Expr{m.nodeSelf[i], c})
				continue
			}
			d := 0
			for _, s := range srcs {
				if ds := depthOfSource(s); ds > d {
					d = ds
				}
			}
			m.deferred = append(m.deferred, deferredCond{cond: c, depth: d})
		}
	}
	for i, cond := range edgeCond {
		src := nn + i
		for _, c := range expr.Conjuncts(cond) {
			srcs := refSourcesOf(c)
			if len(srcs) == 1 && srcs[0] == src {
				m.edgeSelf[i] = expr.AndAll([]expr.Expr{m.edgeSelf[i], c})
				continue
			}
			d := 0
			for _, s := range srcs {
				if ds := depthOfSource(s); ds > d {
					d = ds
				}
			}
			m.deferred = append(m.deferred, deferredCond{cond: c, depth: d})
		}
	}

	// Verification edges: every pattern edge that is not a Via edge gets
	// checked at the depth its later endpoint is bound.
	used := make([]bool, len(pat.Edges))
	for _, v := range m.order {
		if v.Via >= 0 {
			used[v.Via] = true
		}
	}
	m.verifyAt = make([][]*sema.PEdge, len(m.order))
	for _, pe := range pat.Edges {
		if used[pe.ID] {
			continue
		}
		d := m.posOfNode[pe.Src]
		if p := m.posOfNode[pe.Dst]; p > d {
			d = p
		}
		m.verifyAt[d] = append(m.verifyAt[d], pe)
	}
	return m, nil
}

// describeVisit names what the matcher does at order position i, as the
// (action, detail) pair of both its EXPLAIN plan row and its trace span.
func (m *matcher) describeVisit(i int) (action, detail string) {
	v := m.order[i]
	name := stepName(m.pat, m.nodeType, v.Node)
	if v.Via < 0 {
		return "scan", "start at " + name
	}
	pe := m.pat.Edges[v.Via]
	dir := "forward index"
	if !v.Forward {
		dir = "reverse index"
		if pe.Regex == nil && !m.edgeType[v.Via].HasReverse() {
			dir = "edge scan (no reverse index)"
		}
	}
	edgeName := "[ ]"
	if pe.Regex != nil {
		edgeName = "path-regex (product BFS)"
	} else if m.edgeType[v.Via] != nil {
		edgeName = m.edgeType[v.Via].Name
	}
	return "expand", fmt.Sprintf("bind %s via %s, %s", name, edgeName, dir)
}

// buildSpans creates one trace span per order position. It runs lazily
// from matchAll, after the reducer's spans; a subgraph captured from the
// reduced sets never enumerates and shows the reducer's spans only.
func (m *matcher) buildSpans() {
	m.spans = make([]*obs.Span, len(m.order))
	for i := range m.order {
		m.spans[i] = m.e.opSpan(m.describeVisit(i))
	}
}

// noteRow credits one surviving binding to the span of the given depth.
func (m *matcher) noteRow(depth int) {
	if m.spans != nil {
		m.spans[depth].Incr()
	}
}

// flush drains a worker's batched metric counters into the engine's
// registry; called once per shard so hot loops only bump local int64s.
func (m *matcher) flush(w *wstate) {
	if m.e.met.reg == nil {
		return
	}
	m.e.met.rowsScanned.Add(w.scanned)
	m.e.met.edgesTraversed.Add(w.edges)
	m.e.met.indexHits.Add(w.idxHit)
	m.e.met.indexMisses.Add(w.idxMiss)
	if a := m.e.acct; a != nil {
		a.rowsScanned.Add(w.scanned)
		if a.live != nil {
			a.live.AddRows(w.scanned + w.edges - w.reported)
		}
	}
	w.scanned, w.edges, w.idxHit, w.idxMiss, w.reported = 0, 0, 0, 0, 0
}

func refSourcesOf(e expr.Expr) []int {
	var out []int
	for _, r := range expr.Refs(e) {
		if !slices.Contains(out, r.Source) {
			out = append(out, r.Source)
		}
	}
	return out
}

// worker returns the state of one sweep goroutine; only sweeps that
// evaluate a boxed condition or enumerate need the binding slice.
func (m *matcher) worker(binds bool) *wstate {
	w := &wstate{m: m}
	if binds {
		w.b = make([]uint32, len(m.pat.Nodes)+len(m.pat.Edges))
	}
	return w
}

// maxShards bounds the shards of one sweep: four per worker.
func (m *matcher) maxShards() int { return m.workers * 4 }

// frontierShards splits the id space of set — the n ids of a type when set
// is nil — into one range per member while they last, at most maxShards:
// what hangs off one vertex is a unit of work of unknown size. A set of one,
// or fewer index entries to walk (work) than the parallel threshold, is
// swept inline on the caller's goroutine.
func (m *matcher) frontierShards(set *bitmap.Bitmap, n, work int) [][2]uint32 {
	members := n
	if set != nil {
		members = set.Count()
	}
	if !(table.Par{Workers: m.workers, Threshold: m.e.Opts.ParallelThreshold}).Parallel(work) {
		members = 1
	}
	return shardRanges(n, min(m.maxShards(), members))
}

// forEachIn visits the members of set within [lo, hi) in ascending order;
// a nil set holds every id.
func forEachIn(set *bitmap.Bitmap, lo, hi uint32, fn func(v uint32)) {
	if set != nil {
		set.ForEachRange(lo, hi, fn)
		return
	}
	for v := lo; v < hi; v++ {
		fn(v)
	}
}

// restrict narrows frontier — vertices of the node's type in a bitmap the
// caller gives up, nil for all of them — to those in the node's seed on
// which its self condition is TRUE; an unrestricted node hands the
// frontier back, nil included. The condition is decided on every vertex
// of the seeded frontier: by one probe of the key index when it pins a
// single-column key to a constant, else by a compiled filter (typed
// kernels, DESIGN.md §16) over the frontier's attribute rows, which ascend
// with the vertex ids because vertices are numbered by first appearance.
func (m *matcher) restrict(node int, frontier *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	vt := m.nodeType[node]
	if seed := m.seeds[node]; seed != nil {
		if frontier == nil {
			frontier = seed.Clone()
		} else {
			frontier.And(seed)
		}
	}
	cond := m.nodeSelf[node]
	if cond == nil {
		return frontier, nil
	}
	key, probe := keyConstant(cond, node, vt)
	w := m.worker(probe)
	defer m.flush(w)
	if probe {
		out := bitmap.New(vt.Count())
		w.scanned = 1
		if v, found := vt.LookupKeyValues([]value.Value{key}); found && (frontier == nil || frontier.Get(v)) {
			w.b[node] = v
			ok, err := evalBool(cond, w)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Set(v)
			}
		}
		return out, nil
	}
	attrs, rowOf := vt.AttrRows()
	in := table.AllRows(attrs)
	if frontier == nil {
		frontier = bitmap.New(vt.Count())
		if rowOf != nil {
			in = table.RowsOf(attrs, rowOf) // a base table may hold rows of no vertex
		}
	} else {
		rows := frontier.Slice()
		frontier.Reset() // refilled below with the vertices that pass
		for i, v := range rows {
			if rowOf != nil {
				rows[i] = rowOf[v]
			}
		}
		in = table.RowsOf(attrs, rows)
	}
	w.scanned = int64(in.Len())
	par, sweep := m.e.kernelPar(), (*obs.Span)(nil)
	par.OnParallel = func(shards, workers int) func() {
		sweep = m.e.sweepSpan("candidate scan ", vt.Name, shards, workers)
		return m.e.fannedOut(shards, workers)
	}
	hit, err := table.CompileFilter(attrs, cond).Select(in, par)
	sweep.End()
	if err != nil {
		return nil, err
	}
	for i, n := 0, hit.Len(); i < n; i++ {
		v := hit.At(i)
		if rowOf != nil {
			v = vt.VIDForRow(v)
		}
		frontier.Set(v)
	}
	return frontier, nil
}

func (m *matcher) edgeOK(w *wstate, edge int, eid uint32) (bool, error) {
	cond := m.edgeSelf[edge]
	if cond == nil {
		return true, nil
	}
	slot := len(m.pat.Nodes) + edge
	prev := w.b[slot]
	w.b[slot] = eid
	ok, err := evalBool(cond, w)
	w.b[slot] = prev
	return ok, err
}

// matchAll enumerates all bindings, invoking sink(shard, binding) for
// each: it reduces the step sets (reduce) and walks only inside them, so a
// vertex is bound only where the rest of its subtree can complete along
// tree edges (those the reducer culled across); cycle-closing edges,
// deferred conditions and edge conditions are decided per binding. Bindings are streamed per shard; the shards,
// at most maxShards, cover contiguous ranges of the first step's vertex
// ids, so collecting per shard and concatenating in shard order yields
// deterministic results. The binding slice is reused between calls —
// sinks must copy what they keep.
func (m *matcher) matchAll(sink func(shard int, b []uint32) error) error {
	if len(m.order) == 0 {
		return nil
	}
	var err error
	if m.reach, err = m.reduce(m.order, false); err != nil {
		return err
	}
	if m.e.tracing() && m.spans == nil {
		m.buildSpans()
	}
	first := m.order[0].Node
	shards := m.frontierShards(m.reach[first], m.nodeType[first].Count(), math.MaxInt)
	start := time.Now()
	err = m.e.runSweep("binding enumeration", "", len(shards), m.workers, func(si int) error {
		w := m.worker(true)
		for i := range w.b {
			w.b[i] = NoBind
		}
		emit := func(b []uint32) error { return sink(si, b) }
		var inner error
		forEachIn(m.reach[first], shards[si][0], shards[si][1], func(v uint32) {
			if inner != nil {
				return
			}
			if err := w.poll(); err != nil {
				inner = err
				return
			}
			w.b[first] = v
			if err := m.afterBind(w, 0, emit); err != nil {
				inner = err
			}
			w.b[first] = NoBind
		})
		m.flush(w)
		return inner
	})
	if m.spans != nil {
		m.spans[0].AddTime(time.Since(start))
	}
	return err
}

// afterBind runs cycle verification and deferred conditions for the node
// just bound at order position depth, then continues the search.
func (m *matcher) afterBind(w *wstate, depth int, emit func([]uint32) error) error {
	return m.verifyFrom(w, depth, 0, emit)
}

func (m *matcher) verifyFrom(w *wstate, depth, vi int, emit func([]uint32) error) error {
	list := m.verifyAt[depth]
	if vi == len(list) {
		for _, dc := range m.deferred {
			if dc.depth != depth {
				continue
			}
			ok, err := evalBool(dc.cond, w)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		m.noteRow(depth)
		if depth+1 == len(m.order) {
			return emit(w.b)
		}
		return m.expand(w, depth+1, emit)
	}

	pe := list[vi]
	if pe.Regex != nil {
		reach, err := w.cachedReach(pe, w.b[pe.Src], true)
		if err != nil || !reach.Get(w.b[pe.Dst]) {
			return err
		}
		return m.verifyFrom(w, depth, vi+1, emit)
	}
	et := m.edgeType[pe.ID]
	slot := len(m.pat.Nodes) + pe.ID
	src, dst := w.b[pe.Src], w.b[pe.Dst]
	// Enumerate every parallel edge instance connecting the bound
	// endpoints (the graph is a multigraph, §II-A1).
	nbr, eids := w.adjacent(et, src, true)
	for i, d := range nbr {
		if d != dst {
			continue
		}
		ok, err := m.edgeOK(w, pe.ID, eids[i])
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		w.b[slot] = eids[i]
		if err := m.verifyFrom(w, depth, vi+1, emit); err != nil {
			return err
		}
		w.b[slot] = NoBind
	}
	return nil
}

// expand binds the node at order position depth by traversing its Via
// edge from the already-bound endpoint. Under EXPLAIN ANALYZE the call is
// timed into the depth's span (inclusive of deeper expansions).
func (m *matcher) expand(w *wstate, depth int, emit func([]uint32) error) error {
	if m.spans == nil {
		return m.expandStepAt(w, depth, emit)
	}
	t0 := time.Now()
	err := m.expandStepAt(w, depth, emit)
	m.spans[depth].AddTime(time.Since(t0))
	return err
}

func (m *matcher) expandStepAt(w *wstate, depth int, emit func([]uint32) error) error {
	// One amortised context poll per binding attempt: deep enumeration
	// (the combinatorial worst case) passes through here constantly, so a
	// canceled query unwinds promptly even when no sweep boundary is near.
	if err := w.poll(); err != nil {
		return err
	}
	v := m.order[depth]
	reach := m.reach[v.Node]
	if v.Via < 0 {
		// New component (defensive; sema guarantees connectivity).
		var inner error
		forEachIn(reach, 0, uint32(m.nodeType[v.Node].Count()), func(x uint32) {
			if inner != nil {
				return
			}
			w.b[v.Node] = x
			if err := m.afterBind(w, depth, emit); err != nil {
				inner = err
			}
			w.b[v.Node] = NoBind
		})
		return inner
	}

	pe := m.pat.Edges[v.Via]
	if pe.Regex != nil {
		return m.expandRegex(w, depth, v, pe, emit)
	}
	et := m.edgeType[v.Via]
	slot := len(m.pat.Nodes) + pe.ID
	from := w.b[pe.Dst]
	if v.Forward {
		from = w.b[pe.Src]
	}
	nbr, eids := w.adjacent(et, from, v.Forward)
	for i, target := range nbr {
		if reach != nil && !reach.Get(target) {
			continue
		}
		ok, err := m.edgeOK(w, pe.ID, eids[i])
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		w.b[v.Node], w.b[slot] = target, eids[i]
		err = m.afterBind(w, depth, emit)
		w.b[v.Node], w.b[slot] = NoBind, NoBind
		if err != nil {
			return err
		}
	}
	return nil
}

// catalogEstimator adapts catalog statistics (vertex counts, average
// degrees) plus simple condition selectivities to the planner interface.
type catalogEstimator struct {
	m        *matcher
	nodeCond []expr.Expr
}

func (ce *catalogEstimator) NodeCount(node int) float64 {
	m := ce.m
	base := float64(m.nodeType[node].Count())
	sel := condSelectivity(ce.nodeCond[node], node, m.nodeType[node])
	if s := m.seeds[node]; s != nil {
		if c := float64(s.Count()); c < base*sel {
			return c
		}
	}
	return base * sel
}

func (ce *catalogEstimator) EdgeFanout(edge int, forward bool) float64 {
	pe := ce.m.pat.Edges[edge]
	if pe.Regex != nil {
		// Closure fan-out is unbounded; discourage starting from a
		// regex but keep it usable.
		return 32
	}
	et := ce.m.edgeType[edge]
	if forward {
		return et.AvgOutDegree()
	}
	return et.AvgInDegree()
}

func (ce *catalogEstimator) CanTraverse(edge int, forward bool) bool {
	pe := ce.m.pat.Edges[edge]
	if pe.Regex != nil {
		return true // product BFS runs either way
	}
	if forward {
		return true
	}
	return ce.m.edgeType[edge].HasReverse()
}

// condSelectivity estimates the fraction of a vertex type surviving a step
// condition: an equality on a key attribute selects ~1 vertex, other
// equalities ~10%, ranges ~30%.
func condSelectivity(cond expr.Expr, node int, vt *graph.VertexType) float64 {
	if cond == nil {
		return 1
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(cond) {
		b, ok := c.(*expr.Binary)
		if !ok || !b.Op.Comparison() {
			continue
		}
		ref := refOperandOf(b, node)
		if ref == nil {
			continue
		}
		switch {
		case b.Op == expr.OpEq && isKeyAttr(vt, ref.Col):
			if n := float64(vt.Count()); n > 0 {
				sel *= 1 / n
			}
		case b.Op == expr.OpEq:
			// Use the column's dictionary NDV when available (§III-B
			// "statistical properties"); fall back to a 10% guess.
			if ndv := attrDistinct(vt, ref.Col); ndv > 0 {
				sel *= 1 / float64(ndv)
			} else {
				sel *= 0.1
			}
		case b.Op == expr.OpNe:
			sel *= 0.9
		default:
			sel *= 0.3
		}
	}
	return sel
}

// keyConstant finds, among the conjuncts of a node's self condition, one
// that equates the type's single-column key with a non-NULL constant of
// the key's own kind, and returns the constant: at most the one vertex
// with that key can satisfy the condition.
func keyConstant(cond expr.Expr, node int, vt *graph.VertexType) (value.Value, bool) {
	if len(vt.KeyCols) != 1 {
		return value.Value{}, false
	}
	for _, c := range expr.Conjuncts(cond) {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		ref := refOperandOf(b, node)
		if ref == nil || !isKeyAttr(vt, ref.Col) {
			continue
		}
		k, ok := b.R.(*expr.Const)
		if !ok {
			k = b.L.(*expr.Const)
		}
		if !k.V.IsNull() && k.V.Kind() == vt.AttrType(ref.Col).Kind {
			return k.V, true
		}
	}
	return value.Value{}, false
}

func refOperandOf(b *expr.Binary, node int) *expr.Ref {
	if r, ok := b.L.(*expr.Ref); ok && r.Source == node {
		if _, isConst := b.R.(*expr.Const); isConst {
			return r
		}
	}
	if r, ok := b.R.(*expr.Ref); ok && r.Source == node {
		if _, isConst := b.L.(*expr.Const); isConst {
			return r
		}
	}
	return nil
}

// attrDistinct returns the NDV of a vertex attribute column when cheaply
// known (dictionary-encoded columns), else -1.
func attrDistinct(vt *graph.VertexType, col int) int {
	if vt.OneToOne {
		return vt.Base.Col(col).Distinct()
	}
	return vt.Keys.Col(col).Distinct()
}

func isKeyAttr(vt *graph.VertexType, col int) bool {
	if vt.OneToOne {
		for _, k := range vt.KeyCols {
			if k == col {
				return true
			}
		}
		return false
	}
	// Many-to-one attributes are exactly the key columns.
	return true
}
