package sema

import (
	"sort"
	"strings"

	"graql/internal/ast"
	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/table"
)

// Label semantics implemented here (paper §II-B2/B3, Eqs. 6–8):
//
//   - "foreach x:" (element-wise) — every later reference to x denotes the
//     same vertex instance, so reference steps unify into the defining
//     pattern node.
//   - "def X:" referenced later in the same path — the paper's Eq. 7
//     equivalence: the reference is an independent step with the same
//     vertex type and the same condition as the defining step.
//   - "def X:" referenced from an and-composed path — the composed path's
//     step must satisfy ℓ ∧ q2(j−1); the reference shares the defining
//     node, intersecting the matched sets at that step.
func (a *Analyzer) analyzeGraphSelect(s *ast.Select) Stmt {
	out := &Select{Decl: s, Explain: s.Explain, Analyze: s.Analyze, Top: s.Top, Distinct: s.Distinct, Star: s.Star, Into: s.Into}
	if s.Where != nil {
		a.errorf(expr.SpanOf(s.Where), diag.StatementMisuse, "graph selects take conditions on query steps, not a where clause")
	}
	if len(s.GroupBy) > 0 {
		a.errorf(s.GroupBy[0].Loc, diag.GroupingRule, "group by requires a table select (capture the graph result with 'into table' first)")
	}
	for _, it := range s.Items {
		if it.Agg != ast.AggNone || it.AggStar {
			a.errorf(it.Loc, diag.GroupingRule, "aggregates require a table select (capture the graph result with 'into table' first)")
		}
	}

	for _, term := range s.Graph.Terms {
		before := a.errorCount()
		pat, b := a.buildPattern(term)
		if a.errorCount() > before {
			// The pattern itself is broken; resolving the projection
			// against it would only cascade.
			continue
		}
		a.lintPattern(term)
		alt := &GraphAlt{Pattern: pat}
		schema, ok := a.resolveGraphProj(s, pat, alt)
		if !ok {
			continue
		}
		a.lintUnusedLabels(s, b)
		if out.GraphAlts == nil {
			out.OutSchema = schema
		} else if !schemaEqual(out.OutSchema, schema) {
			a.errorf(diag.Span{}, diag.ProjectionRule, "or-composed path queries produce different output schemas")
		}
		out.GraphAlts = append(out.GraphAlts, alt)
	}

	if s.Into.Kind != ast.IntoSubgraph {
		if !a.hasErrors() {
			if err := out.OutSchema.Validate(); err != nil {
				a.errorf(diag.Span{}, diag.ProjectionRule, "select output: %s (use labels or 'as' aliases)", strings.TrimPrefix(err.Error(), "graql: "))
			}
			for _, k := range s.OrderBy {
				col := out.OutSchema.Index(k.Ref.Name)
				if k.Ref.Qualifier != "" || col < 0 {
					a.errorf(k.Ref.Loc, diag.OrderByRule, "order by %s does not name an output column", k.Ref)
					continue
				}
				out.OrderBy = append(out.OrderBy, OrderKey{Col: col, Desc: k.Desc})
			}
		}
	} else if len(s.OrderBy) > 0 {
		a.errorf(s.OrderBy[0].Ref.Loc, diag.OrderByRule, "order by does not apply to a subgraph result")
	}
	if a.hasErrors() {
		return nil
	}
	return out
}

// errorCount returns the number of error diagnostics recorded so far for
// the current statement.
func (a *Analyzer) errorCount() int { return len(a.diags.Errors()) }

// lintPattern warns when an and-composition has no selective anchor at
// all: no step condition anywhere and no seeded step. With an anchor,
// unbounded repetition and [ ] variant steps are the normal exploration
// idioms; without one, an unbounded regex can expand to the whole graph
// (GQL1008) and a variant vertex step multiplies the match set across
// every vertex type (GQL1009). These feed the same cardinality story as
// EXPLAIN's est_rows: both warnings mark patterns whose static upper
// bound is unbounded.
func (a *Analyzer) lintPattern(term *ast.PathAnd) {
	anchored := false
	var unbounded []*ast.RegexGroup
	var variants []*ast.VertexStep
	for _, path := range term.Paths {
		for _, el := range path.Elems {
			switch e := el.(type) {
			case *ast.VertexStep:
				if e.Cond != nil || e.SeedGraph != "" {
					anchored = true
				}
				if e.Variant {
					variants = append(variants, e)
				}
			case *ast.EdgeStep:
				if e.Cond != nil {
					anchored = true
				}
			case *ast.RegexGroup:
				if e.Max < 0 {
					unbounded = append(unbounded, e)
				}
			}
		}
	}
	if anchored {
		return
	}
	for _, g := range unbounded {
		a.warnf(g.Loc, diag.ExplodingExpansion,
			"unbounded repetition in a pattern with no condition or seed can expand to the whole graph; add a step condition or a {n,m} bound")
	}
	for _, v := range variants {
		a.warnf(v.Loc, diag.CrossProduct,
			"[ ] variant step in a pattern with no condition or seed matches every vertex of every type; add a condition or a concrete type")
	}
}

// lintUnusedLabels warns about labels that neither a condition nor the
// projection ever references. A "select *" uses every label for display
// names, so it marks nothing unused.
func (a *Analyzer) lintUnusedLabels(s *ast.Select, b *patternBuilder) {
	if s.Star {
		return
	}
	for _, it := range s.Items {
		r, ok := it.Expr.(*expr.Ref)
		if !ok {
			continue
		}
		if info, ok := b.labels[r.Name]; ok {
			info.used = true
		}
		if info, ok := b.labels[r.Qualifier]; r.Qualifier != "" && ok {
			info.used = true
		}
	}
	names := make([]string, 0, len(b.labels))
	for name := range b.labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if info := b.labels[name]; !info.used {
			a.warnf(info.loc, diag.UnusedLabel, "label %s is defined but never used", name)
		}
	}
}

func schemaEqual(a, b table.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i].Name, b[i].Name) || a[i].Type.Kind != b[i].Type.Kind {
			return false
		}
	}
	return true
}

type labelInfo struct {
	kind    ast.LabelKind
	isEdge  bool
	node    *Node
	edge    *PEdge
	pathIdx int       // index of the path that defined the label
	loc     diag.Span // span of the defining label name
	used    bool      // referenced by a later step, condition or projection
}

type patternBuilder struct {
	a      *Analyzer
	pat    *Pattern
	labels map[string]*labelInfo
	// nodeConds collects each node's unresolved step conditions; they
	// are resolved once the whole pattern is known so that conditions
	// may reference labels defined later in source order.
	nodeConds [][]expr.Expr
	edgeConds []expr.Expr
	shared    bool // a step of the current path referenced a shared label
	curPath   int  // index of the path being built
}

// buildPattern assembles the pattern graph for one and-composition,
// recording every step-level problem it finds. Unresolvable steps become
// poisoned placeholder nodes so the rest of the composition is still
// checked; the connectivity check runs only on structurally clean
// patterns (a half-built path is trivially "disconnected").
func (a *Analyzer) buildPattern(term *ast.PathAnd) (*Pattern, *patternBuilder) {
	b := &patternBuilder{a: a, pat: &Pattern{}, labels: make(map[string]*labelInfo)}
	before := a.errorCount()
	for pi, path := range term.Paths {
		b.shared = false
		b.curPath = pi
		ok := b.addPath(path)
		if pi > 0 && ok && !b.shared {
			a.errorf(pathSpan(path), diag.LabelRule, "and-composed path queries must share a label (paper §II-B3)")
		}
	}
	if a.errorCount() == before {
		b.checkConnected()
	}
	b.resolveConds()
	return b.pat, b
}

// pathSpan covers a path's first through last element.
func pathSpan(path *ast.Path) diag.Span {
	var s diag.Span
	for _, el := range path.Elems {
		s = s.Cover(elemSpan(el))
	}
	return s
}

func elemSpan(el ast.PathElem) diag.Span {
	switch e := el.(type) {
	case *ast.VertexStep:
		return e.Loc
	case *ast.EdgeStep:
		return e.Loc
	case *ast.RegexGroup:
		return e.Loc
	}
	return diag.Span{}
}

func (b *patternBuilder) addPath(path *ast.Path) bool {
	if len(path.Elems) == 0 || len(path.Elems)%2 == 0 {
		b.a.errorf(pathSpan(path), diag.MalformedPath, "malformed path query: must start and end with a vertex step")
		return false
	}
	cur := b.vertexStep(path.Elems[0].(*ast.VertexStep))
	for i := 1; i < len(path.Elems); i += 2 {
		// The vertex node must exist before the edge can reference it,
		// but StepOrder must list the edge first (source order); swap
		// the two entries after building when the vertex was new.
		before := len(b.pat.StepOrder)
		next := b.vertexStep(path.Elems[i+1].(*ast.VertexStep))
		vertexAppended := len(b.pat.StepOrder) > before
		switch e := path.Elems[i].(type) {
		case *ast.EdgeStep:
			b.edgeStep(e, cur, next)
		case *ast.RegexGroup:
			b.regexGroup(e, cur, next)
		default:
			b.a.errorf(pathSpan(path), diag.MalformedPath, "malformed path query: expected an edge step")
			return false
		}
		if vertexAppended {
			so := b.pat.StepOrder
			so[len(so)-1], so[len(so)-2] = so[len(so)-2], so[len(so)-1]
		}
		cur = next
	}
	return true
}

func (b *patternBuilder) newNode() *Node {
	n := &Node{ID: len(b.pat.Nodes), SameTypeAs: -1}
	b.pat.Nodes = append(b.pat.Nodes, n)
	b.nodeConds = append(b.nodeConds, nil)
	b.pat.StepOrder = append(b.pat.StepOrder, StepRef{Index: n.ID})
	return n
}

// poisonNode creates a placeholder for an unresolvable vertex step so
// pattern building can continue.
func (b *patternBuilder) poisonNode() *Node {
	n := b.newNode()
	n.Poisoned = true
	return n
}

func (b *patternBuilder) registerLabel(def *ast.LabelDef, n *Node, e *PEdge) {
	if def == nil {
		return
	}
	if _, dup := b.labels[def.Name]; dup {
		b.a.errorf(def.Loc, diag.DuplicateName, "label %s already defined", def.Name)
		return
	}
	info := &labelInfo{kind: def.Kind, pathIdx: b.curPath, loc: def.Loc}
	if n != nil {
		info.node = n
		n.Labels = append(n.Labels, def.Name)
		if def.Kind == ast.LabelForeach {
			n.Foreach = true
		}
	} else {
		info.isEdge = true
		info.edge = e
		e.Labels = append(e.Labels, def.Name)
	}
	b.labels[def.Name] = info
}

// vertexStep resolves one vertex step into a pattern node, creating,
// copying or unifying per the label rules above. Unresolvable steps are
// diagnosed and replaced with poisoned placeholder nodes.
func (b *patternBuilder) vertexStep(step *ast.VertexStep) *Node {
	g := b.a.Cat.Graph()

	// Variant "[ ]" step.
	if step.Variant {
		if step.Cond != nil {
			b.a.errorf(expr.SpanOf(step.Cond).Cover(step.Loc), diag.VariantRestrict, "conditional expressions are not allowed on [ ] variant steps (paper §II-B4)")
		}
		n := b.newNode()
		b.registerLabel(step.Label, n, nil)
		return n
	}

	// Seeded step resQ1.Vn (Fig. 12).
	if step.SeedGraph != "" {
		if ResolveSubgraph(b.a.Cat, b.a.Locals, step.SeedGraph) == nil {
			b.a.errorf(step.Loc, diag.UnknownSubgraph, "unknown subgraph %s", step.SeedGraph)
		}
		vt := g.VertexType(step.Name)
		if vt == nil {
			b.a.errorf(step.Loc, diag.UnknownVertex, "unknown vertex type %s in seeded step %s.%s", step.Name, step.SeedGraph, step.Name)
			n := b.poisonNode()
			b.registerLabel(step.Label, n, nil)
			return n
		}
		n := b.newNode()
		n.Type = vt
		n.Seed = step.SeedGraph
		if step.Cond != nil {
			b.nodeConds[n.ID] = append(b.nodeConds[n.ID], step.Cond)
		}
		b.registerLabel(step.Label, n, nil)
		return n
	}

	// Label reference.
	if info, ok := b.labels[step.Name]; ok {
		info.used = true
		if info.isEdge {
			b.a.errorf(step.Loc, diag.LabelRule, "label %s names an edge step and cannot appear as a vertex step", step.Name)
			n := b.poisonNode()
			b.registerLabel(step.Label, n, nil)
			return n
		}
		b.shared = true
		if info.kind == ast.LabelForeach || info.pathIdx != b.curPath {
			// Element-wise references, and references from an
			// and-composed path (the paper's ℓ ∧ q2(j−1) semantics),
			// unify with the defining node.
			n := info.node
			if step.Cond != nil {
				b.nodeConds[n.ID] = append(b.nodeConds[n.ID], step.Cond)
			}
			b.registerLabel(step.Label, n, nil)
			return n
		}
		// In-path set-label reference: the paper's Eq. 7 equivalence — a
		// fresh, independent step with the defining step's vertex type
		// and condition (so a set label may match an open path where a
		// foreach label requires a cycle).
		def := info.node
		n := b.newNode()
		n.Type = def.Type
		n.Poisoned = def.Poisoned
		if def.Type == nil && !def.Poisoned {
			n.SameTypeAs = def.ID
		}
		n.Seed = def.Seed
		b.nodeConds[n.ID] = append(b.nodeConds[n.ID], b.nodeConds[def.ID]...)
		if step.Cond != nil {
			b.nodeConds[n.ID] = append(b.nodeConds[n.ID], step.Cond)
		}
		b.registerLabel(step.Label, n, nil)
		return n
	}

	// Concrete vertex type.
	vt := g.VertexType(step.Name)
	if vt == nil {
		if b.a.Cat.Table(step.Name) != nil {
			b.a.errorf(step.Loc, diag.WrongEntityKind, "%s is a table; a path query step requires a vertex type", step.Name)
		} else if g.EdgeType(step.Name) != nil {
			b.a.errorf(step.Loc, diag.WrongEntityKind, "%s is an edge type; expected a vertex type at this step", step.Name)
		} else {
			b.a.errorf(step.Loc, diag.UnknownVertex, "unknown vertex type or label %s", step.Name)
		}
		n := b.poisonNode()
		b.registerLabel(step.Label, n, nil)
		return n
	}
	n := b.newNode()
	n.Type = vt
	if step.Cond != nil {
		b.nodeConds[n.ID] = append(b.nodeConds[n.ID], step.Cond)
	}
	b.registerLabel(step.Label, n, nil)
	return n
}

func (b *patternBuilder) edgeStep(step *ast.EdgeStep, left, right *Node) {
	g := b.a.Cat.Graph()
	e := &PEdge{ID: len(b.pat.Edges)}
	if step.Out {
		e.Src, e.Dst = left.ID, right.ID
	} else {
		e.Src, e.Dst = right.ID, left.ID
	}
	if step.Variant {
		if step.Cond != nil {
			b.a.errorf(expr.SpanOf(step.Cond).Cover(step.Loc), diag.VariantRestrict, "conditional expressions are not allowed on [ ] variant steps (paper §II-B4)")
		}
	} else {
		et := g.EdgeType(step.Name)
		if et == nil {
			if g.VertexType(step.Name) != nil {
				b.a.errorf(step.Loc, diag.WrongEntityKind, "%s is a vertex type; expected an edge type at this step", step.Name)
			} else {
				b.a.errorf(step.Loc, diag.UnknownEdge, "unknown edge type %s", step.Name)
			}
			e.Poisoned = true
		} else {
			e.Type = et
			// A concrete edge type determines the types of adjacent variant
			// steps and must agree with concrete ones (§III-A path checks).
			b.constrainNodeType(e.Src, et.Src, et.Name, step.Loc)
			b.constrainNodeType(e.Dst, et.Dst, et.Name, step.Loc)
		}
	}
	b.pat.Edges = append(b.pat.Edges, e)
	b.edgeConds = append(b.edgeConds, step.Cond)
	b.pat.StepOrder = append(b.pat.StepOrder, StepRef{IsEdge: true, Index: e.ID})
	b.registerLabel(step.Label, nil, e)
}

func (b *patternBuilder) constrainNodeType(nodeID int, want *graph.VertexType, edgeName string, span diag.Span) {
	n := b.pat.Nodes[nodeID]
	if n.Poisoned {
		return
	}
	if n.Type == nil {
		if n.SameTypeAs < 0 {
			n.Type = want
		}
		return
	}
	if n.Type != want {
		b.a.errorf(span, diag.MalformedPath, "edge %s requires a step of vertex type %s, but the step has type %s",
			edgeName, want.Name, n.Type.Name)
	}
}

func (b *patternBuilder) regexGroup(g *ast.RegexGroup, left, right *Node) {
	gr := b.a.Cat.Graph()
	rx := &Regex{Min: g.Min, Max: g.Max}
	bad := false
	for i := 0; i < len(g.Elems); i += 2 {
		es := g.Elems[i].(*ast.EdgeStep)
		vs := g.Elems[i+1].(*ast.VertexStep)
		if es.Cond != nil || vs.Cond != nil {
			b.a.errorf(g.Loc, diag.RegexRestriction, "conditions are not allowed inside a path regular expression")
			bad = true
		}
		if es.Label != nil || vs.Label != nil {
			b.a.errorf(g.Loc, diag.RegexRestriction, "labels are not allowed inside a path regular expression (paper §II-B4)")
			bad = true
		}
		var st RegexStep
		st.Out = es.Out
		if !es.Variant {
			et := gr.EdgeType(es.Name)
			if et == nil {
				b.a.errorf(es.Loc, diag.UnknownEdge, "unknown edge type %s in path regular expression", es.Name)
				bad = true
			}
			st.Edge = et
		}
		if !vs.Variant {
			if vs.SeedGraph != "" {
				b.a.errorf(vs.Loc, diag.RegexRestriction, "seeded steps are not allowed inside a path regular expression")
				bad = true
			} else {
				vt := gr.VertexType(vs.Name)
				if vt == nil {
					b.a.errorf(vs.Loc, diag.UnknownVertex, "unknown vertex type %s in path regular expression", vs.Name)
					bad = true
				}
				st.Vtx = vt
			}
		}
		rx.Steps = append(rx.Steps, st)
	}
	e := &PEdge{ID: len(b.pat.Edges), Src: left.ID, Dst: right.ID, Regex: rx, Poisoned: bad}
	b.pat.Edges = append(b.pat.Edges, e)
	b.edgeConds = append(b.edgeConds, nil)
	b.pat.StepOrder = append(b.pat.StepOrder, StepRef{IsEdge: true, Index: e.ID})
}

func (b *patternBuilder) checkConnected() {
	n := len(b.pat.Nodes)
	if n <= 1 {
		return
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range b.pat.Edges {
		parent[find(e.Src)] = find(e.Dst)
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			b.a.errorf(diag.Span{}, diag.Disconnected, "path pattern is disconnected; and-composed paths must be linked by foreach labels")
			return
		}
	}
}
