package sema

import (
	"fmt"
	"strings"

	"graql/internal/ast"
	"graql/internal/diag"
	"graql/internal/expr"
	"graql/internal/table"
	"graql/internal/value"
)

// patternTypeEnv exposes step attribute types for expression checking.
// Source numbering: nodes first, then edges.
type patternTypeEnv struct{ pat *Pattern }

func (e patternTypeEnv) TypeOf(source, col int) value.Type {
	if source < len(e.pat.Nodes) {
		return e.pat.Nodes[source].Type.AttrType(col)
	}
	return e.pat.Edges[source-len(e.pat.Nodes)].Type.AttrType(col)
}

// resolveConds resolves and type-checks every step condition once the
// whole pattern is known, so conditions can reference attributes of other
// labelled steps ("attributes from previous steps (if labeled)", §II-B).
// Each step's condition is checked independently; conditions on poisoned
// steps are skipped (their step already failed).
func (b *patternBuilder) resolveConds() {
	env := patternTypeEnv{pat: b.pat}
	for _, n := range b.pat.Nodes {
		conds := b.nodeConds[n.ID]
		if len(conds) == 0 || n.Poisoned {
			continue
		}
		resolved, ok := b.resolvePatternExpr(expr.AndAll(conds), n.ID, -1)
		if !ok {
			continue
		}
		resolved = b.a.coerceDates(resolved, env)
		if !b.a.checkBool(resolved, env) {
			continue
		}
		n.Cond = dropAlwaysTrue(b.a.lintCond(resolved))
	}
	for i, e := range b.pat.Edges {
		cond := b.edgeConds[i]
		if cond == nil || e.Poisoned {
			continue
		}
		resolved, ok := b.resolvePatternExpr(cond, -1, e.ID)
		if !ok {
			continue
		}
		resolved = b.a.coerceDates(resolved, env)
		if !b.a.checkBool(resolved, env) {
			continue
		}
		e.Cond = dropAlwaysTrue(b.a.lintCond(resolved))
	}
}

// resolvePatternExpr resolves references in a step condition. Unqualified
// names resolve against the owning step; qualified names resolve against a
// label or an unambiguous vertex/edge type name. Every bad reference is
// diagnosed; ok reports whether the whole expression resolved.
func (b *patternBuilder) resolvePatternExpr(e expr.Expr, selfNode, selfEdge int) (expr.Expr, bool) {
	ok := true
	fail := func(span diag.Span, code diag.Code, format string, args ...any) {
		b.a.errorf(span, code, format, args...)
		ok = false
	}
	out := expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		r, isRef := x.(*expr.Ref)
		if !isRef {
			return nil
		}
		if r.Qualifier == "" {
			switch {
			case selfNode >= 0:
				n := b.pat.Nodes[selfNode]
				if n.Type == nil {
					fail(r.Loc, diag.VariantRestrict, "attributes of a [ ] variant step cannot be referenced")
					return r
				}
				col, found := n.Type.AttrIndex(r.Name)
				if !found {
					fail(r.Loc, diag.UnknownColumn, "vertex type %s has no attribute %s", n.Type.Name, r.Name)
					return r
				}
				r.Source, r.Col = selfNode, col
			default:
				pe := b.pat.Edges[selfEdge]
				if pe.Type == nil {
					fail(r.Loc, diag.VariantRestrict, "attributes of a [ ] variant step cannot be referenced")
					return r
				}
				col, found := pe.Type.AttrIndex(r.Name)
				if !found {
					fail(r.Loc, diag.UnknownColumn, "edge type %s has no attribute %s", pe.Type.Name, r.Name)
					return r
				}
				r.Source, r.Col = len(b.pat.Nodes)+selfEdge, col
			}
			return r
		}
		src, step, found := b.lookupQualifier(r.Qualifier, r.Loc)
		if !found {
			ok = false
			return r
		}
		col, found := step.AttrIndex(r.Name)
		if !found {
			fail(r.Loc, diag.UnknownColumn, "step %s has no attribute %s", r.Qualifier, r.Name)
			return r
		}
		r.Source, r.Col = src, col
		return r
	})
	return out, ok
}

// attributed is a vertex or edge type: the attribute names visible on it
// resolve through AttrIndex, which alone knows that a many-to-one vertex
// type shows only its key columns.
type attributed interface {
	AttrIndex(name string) (int, bool)
}

// lookupQualifier resolves a step qualifier (label or type name) to a
// pattern source id and the type its attributes resolve through,
// diagnosing failures at the given span. Qualifiers naming a poisoned step
// fail silently: the step itself already carries a diagnostic.
func (b *patternBuilder) lookupQualifier(q string, span diag.Span) (int, attributed, bool) {
	if info, ok := b.labels[q]; ok {
		info.used = true
		if info.isEdge {
			pe := info.edge
			if pe.Poisoned {
				return 0, nil, false
			}
			if pe.Type == nil {
				b.a.errorf(span, diag.VariantRestrict, "attributes of the [ ] variant step %s cannot be referenced", q)
				return 0, nil, false
			}
			return len(b.pat.Nodes) + pe.ID, pe.Type, true
		}
		n := info.node
		if n.Poisoned {
			return 0, nil, false
		}
		if n.Type == nil {
			b.a.errorf(span, diag.VariantRestrict, "attributes of the [ ] variant step %s cannot be referenced", q)
			return 0, nil, false
		}
		return n.ID, n.Type, true
	}
	// An unambiguous vertex type name.
	found := -1
	for _, n := range b.pat.Nodes {
		if n.Type != nil && strings.EqualFold(n.Type.Name, q) {
			if found >= 0 {
				b.a.errorf(span, diag.AmbiguousName, "step reference %s is ambiguous; disambiguate with a label", q)
				return 0, nil, false
			}
			found = n.ID
		}
	}
	if found >= 0 {
		return found, b.pat.Nodes[found].Type, true
	}
	// An unambiguous edge type name.
	foundE := -1
	for _, e := range b.pat.Edges {
		if e.Type != nil && strings.EqualFold(e.Type.Name, q) {
			if foundE >= 0 {
				b.a.errorf(span, diag.AmbiguousName, "step reference %s is ambiguous; disambiguate with a label", q)
				return 0, nil, false
			}
			foundE = e.ID
		}
	}
	if foundE >= 0 {
		e := b.pat.Edges[foundE]
		if e.Type.AttrSchema() == nil {
			b.a.errorf(span, diag.UnknownColumn, "edge type %s has no attributes", q)
			return 0, nil, false
		}
		return len(b.pat.Nodes) + foundE, e.Type, true
	}
	b.a.errorf(span, diag.UnknownSource, "unknown step reference %s", q)
	return 0, nil, false
}

// patternStepResolver resolves projection qualifiers after the builder is
// gone; it rebuilds the label map from the pattern.
type patternStepResolver struct {
	a   *Analyzer
	pat *Pattern
}

func (r patternStepResolver) resolveStep(name string, span diag.Span) (src int, isEdge bool, ok bool) {
	if n := r.pat.NodeByLabel(name); n != nil {
		return n.ID, false, true
	}
	if e := r.pat.EdgeByLabel(name); e != nil {
		return len(r.pat.Nodes) + e.ID, true, true
	}
	found := -1
	for _, n := range r.pat.Nodes {
		if n.Type != nil && strings.EqualFold(n.Type.Name, name) {
			if found >= 0 {
				r.a.errorf(span, diag.AmbiguousName, "output step %s is ambiguous; disambiguate with a label (paper §II-C)", name)
				return 0, false, false
			}
			found = n.ID
		}
	}
	if found >= 0 {
		return found, false, true
	}
	foundE := -1
	for _, e := range r.pat.Edges {
		if e.Type != nil && strings.EqualFold(e.Type.Name, name) {
			if foundE >= 0 {
				r.a.errorf(span, diag.AmbiguousName, "output step %s is ambiguous; disambiguate with a label (paper §II-C)", name)
				return 0, false, false
			}
			foundE = e.ID
		}
	}
	if foundE >= 0 {
		return len(r.pat.Nodes) + foundE, true, true
	}
	r.a.errorf(span, diag.UnknownSource, "unknown output step %s", name)
	return 0, false, false
}

// displayNames assigns each step a unique display name (first label, else
// type name, else "step<i>"), used to prefix star-projection columns.
func displayNames(pat *Pattern) map[StepRef]string {
	used := map[string]int{}
	out := map[StepRef]string{}
	name := func(base string) string {
		used[base]++
		if used[base] > 1 {
			return fmt.Sprintf("%s%d", base, used[base])
		}
		return base
	}
	for _, ref := range pat.StepOrder {
		if ref.IsEdge {
			e := pat.Edges[ref.Index]
			base := "edge"
			if len(e.Labels) > 0 {
				base = e.Labels[0]
			} else if e.Type != nil {
				base = e.Type.Name
			}
			out[ref] = name(base)
		} else {
			n := pat.Nodes[ref.Index]
			base := "step"
			if len(n.Labels) > 0 {
				base = n.Labels[0]
			} else if n.Type != nil {
				base = n.Type.Name
			}
			out[ref] = name(base)
		}
	}
	return out
}

// resolveGraphProj resolves a graph select's projection against one
// pattern, expanding whole-step items and "*" into concrete (source,
// column) outputs for table-producing selects, and whole-step sets for
// subgraph capture. Each item is checked independently. It returns the
// output schema (nil for subgraphs) and whether resolution succeeded.
func (a *Analyzer) resolveGraphProj(s *ast.Select, pat *Pattern, alt *GraphAlt) (table.Schema, bool) {
	res := patternStepResolver{a: a, pat: pat}
	subgraph := s.Into.Kind == ast.IntoSubgraph
	before := a.errorCount()

	if subgraph {
		if s.Star {
			alt.Proj = nil // capture everything
			return nil, true
		}
		for _, it := range s.Items {
			r, isRef := it.Expr.(*expr.Ref)
			if !isRef || r.Qualifier != "" {
				a.errorf(it.Loc, diag.ProjectionRule, "a subgraph select takes whole steps, not attribute expressions")
				continue
			}
			src, _, ok := res.resolveStep(r.Name, r.Loc)
			if !ok {
				continue
			}
			alt.Proj = append(alt.Proj, GraphProjItem{Source: src, Col: -1, Name: r.Name})
		}
		if a.errorCount() > before {
			return nil, false
		}
		if len(alt.Proj) == 0 {
			a.errorf(diag.Span{}, diag.ProjectionRule, "empty subgraph projection")
			return nil, false
		}
		return nil, true
	}

	// Table-producing select: expand to concrete columns.
	var schema table.Schema
	addNodeCol := func(n *Node, col int, name string) {
		alt.Proj = append(alt.Proj, GraphProjItem{Source: n.ID, Col: col, Name: name})
		schema = append(schema, table.ColumnDef{Name: name, Type: n.Type.AttrType(col)})
	}
	addEdgeCol := func(e *PEdge, col int, name string) {
		alt.Proj = append(alt.Proj, GraphProjItem{Source: len(pat.Nodes) + e.ID, Col: col, Name: name})
		schema = append(schema, table.ColumnDef{Name: name, Type: e.Type.AttrType(col)})
	}

	if s.Star {
		names := displayNames(pat)
		for _, ref := range pat.StepOrder {
			if ref.IsEdge {
				e := pat.Edges[ref.Index]
				if e.Regex != nil {
					continue // a regex fragment carries no attributes
				}
				if e.Type == nil {
					a.errorf(diag.Span{}, diag.VariantRestrict, "select * into table cannot include [ ] variant steps; project labelled steps instead")
					return nil, false
				}
				for c, cd := range e.Type.AttrSchema() {
					addEdgeCol(e, c, names[ref]+"."+cd.Name)
				}
			} else {
				n := pat.Nodes[ref.Index]
				if n.Type == nil {
					a.errorf(diag.Span{}, diag.VariantRestrict, "select * into table cannot include [ ] variant steps; project labelled steps instead")
					return nil, false
				}
				for _, c := range n.Type.AttrCols() {
					addNodeCol(n, c, names[ref]+"."+n.Type.AttrName(c))
				}
			}
		}
		return schema, true
	}

	for _, it := range s.Items {
		r, isRef := it.Expr.(*expr.Ref)
		if !isRef {
			a.errorf(it.Loc, diag.ProjectionRule, "graph select items must be steps or step attributes, not computed expressions")
			continue
		}
		if r.Qualifier == "" {
			// Whole step: expand to its key columns (vertex) or
			// attribute columns (edge).
			src, isEdge, ok := res.resolveStep(r.Name, r.Loc)
			if !ok {
				continue
			}
			display := it.Alias
			if display == "" {
				display = r.Name
			}
			if isEdge {
				e := pat.Edges[src-len(pat.Nodes)]
				if e.Type == nil || e.Regex != nil {
					a.errorf(r.Loc, diag.ProjectionRule, "step %s has no attributes to project into a table", r.Name)
					continue
				}
				if e.Type.AttrSchema() == nil {
					a.errorf(r.Loc, diag.ProjectionRule, "edge type %s has no attributes to project", e.Type.Name)
					continue
				}
				for c, cd := range e.Type.AttrSchema() {
					addEdgeCol(e, c, display+"."+cd.Name)
				}
				continue
			}
			n := pat.Nodes[src]
			if n.Type == nil {
				a.errorf(r.Loc, diag.VariantRestrict, "[ ] variant step %s cannot be projected into a table; use into subgraph", r.Name)
				continue
			}
			if len(n.Type.KeyCols) == 1 {
				addNodeCol(n, n.Type.KeyCols[0], display)
				continue
			}
			for _, c := range n.Type.KeyCols {
				addNodeCol(n, c, display+"."+n.Type.AttrName(c))
			}
			continue
		}
		// Qualified attribute: label.attr or TypeName.attr.
		src, isEdge, ok := res.resolveStep(r.Qualifier, r.Loc)
		if !ok {
			continue
		}
		name := it.Alias
		if name == "" {
			name = r.Name
		}
		if isEdge {
			e := pat.Edges[src-len(pat.Nodes)]
			if e.Type == nil {
				a.errorf(r.Loc, diag.VariantRestrict, "attributes of the [ ] variant step %s cannot be projected", r.Qualifier)
				continue
			}
			col, found := e.Type.AttrIndex(r.Name)
			if !found {
				a.errorf(r.Loc, diag.UnknownColumn, "edge type %s has no attribute %s", e.Type.Name, r.Name)
				continue
			}
			addEdgeCol(e, col, name)
			continue
		}
		n := pat.Nodes[src]
		if n.Type == nil {
			a.errorf(r.Loc, diag.VariantRestrict, "attributes of the [ ] variant step %s cannot be projected", r.Qualifier)
			continue
		}
		col, found := n.Type.AttrIndex(r.Name)
		if !found {
			a.errorf(r.Loc, diag.UnknownColumn, "vertex type %s has no attribute %s", n.Type.Name, r.Name)
			continue
		}
		addNodeCol(n, col, name)
	}
	if a.errorCount() > before {
		return nil, false
	}
	if len(alt.Proj) == 0 {
		a.errorf(diag.Span{}, diag.ProjectionRule, "empty projection")
		return nil, false
	}
	return schema, true
}
