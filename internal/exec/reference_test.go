package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/sema"
	"graql/internal/value"
)

// A deliberately naive reading of the paper's view equations, the referee
// every production route to a view is compared against: Eq. 1 as a scan
// with a linear search for the key, Eq. 2 as nested loops. It shares
// nothing with the engine but value, read access to tables and the
// analysed declarations and patterns — and, for Eq. 5, parameter binding and
// the enumeration of variant typings (ROADMAP item 1's reference evaluator).
// Keep it auditable by eye: no index, no hashing, no bitmap arithmetic.

// refEnv resolves a column reference of an analysed condition.
type refEnv func(source, col int) value.Value

func (f refEnv) Lookup(source, col int) value.Value { return f(source, col) }

// refHolds evaluates a condition that may be absent; NULL is not true.
func refHolds(t *testing.T, cond expr.Expr, env refEnv) bool {
	if cond == nil {
		return true
	}
	v, err := cond.Eval(env)
	if err != nil {
		t.Fatalf("reference: %s: %v", cond, err)
	}
	return !v.IsNull() && v.Bool()
}

// refSame is key and join equality: non-NULL, of one kind, equal.
func refSame(a, b value.Value) bool {
	return !a.IsNull() && !b.IsNull() && a.Kind() == b.Kind() && value.Equal(a, b)
}

func refJoin(vals []value.Value) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = v.String()
	}
	return strings.Join(s, ",")
}

// refVertexView is Eq. 1, V = Π_key σ_φ(T): the distinct non-NULL key
// tuples of the rows passing the where clause, in first-appearance order.
type refVertexView struct {
	decl *sema.CreateVertex
	rows []uint32 // the first base row of each vertex
	// oneToOne: no key came twice, so every base column is an attribute;
	// otherwise only the key columns are (paper §II-A).
	oneToOne bool
}

func referenceVertex(t *testing.T, sv *sema.CreateVertex) *refVertexView {
	v := &refVertexView{decl: sv, oneToOne: true}
	sameKey := func(a, b uint32) bool { // never, when either key holds a NULL
		for _, c := range sv.KeyCols {
			if !refSame(sv.Base.Value(a, c), sv.Base.Value(b, c)) {
				return false
			}
		}
		return true
	}
	for r := uint32(0); r < uint32(sv.Base.NumRows()); r++ {
		if !refHolds(t, sv.Where, func(_, col int) value.Value { return sv.Base.Value(r, col) }) || !sameKey(r, r) {
			continue
		}
		if slices.ContainsFunc(v.rows, func(first uint32) bool { return sameKey(r, first) }) {
			v.oneToOne = false
			continue
		}
		v.rows = append(v.rows, r)
	}
	return v
}

// values returns vertex i's key or, with attrs, every attribute it
// exposes.
func (v *refVertexView) values(i uint32, attrs bool) []value.Value {
	row := v.decl.Base.Row(v.rows[i])
	if attrs && v.oneToOne {
		return row
	}
	key := make([]value.Value, len(v.decl.KeyCols))
	for k, c := range v.decl.KeyCols {
		key[k] = row[c]
	}
	return key
}

// referenceEdges is Eq. 2, E = (S ⋈ σ_φ A) ⋈ T, by nested loops over the
// rows of every source (the instances of views[name] for a vertex source),
// keeping the tuples on which every single-source filter and every join
// equality holds — each checked once its sources are bound, or six
// sources would take minutes — projected to the set of (source vertex,
// target vertex, associated row) and rendered like canonicalEdges.
func referenceEdges(t *testing.T, se *sema.CreateEdge, views map[string]*refVertexView) []string {
	view := func(i int) *refVertexView { return views[strings.ToLower(se.Sources[i].Vtx.Name)] }
	size := func(i int) int {
		if se.Sources[i].IsVertex {
			return len(view(i).rows)
		}
		return se.Sources[i].Tbl.NumRows()
	}
	tup := make([]uint32, len(se.Sources))
	// Conditions address a vertex attribute by its base-table column.
	val := func(i, col int) value.Value {
		if se.Sources[i].IsVertex {
			return view(i).decl.Base.Value(view(i).rows[tup[i]], col)
		}
		return se.Sources[i].Tbl.Value(tup[i], col)
	}
	seen := map[[3]uint32]bool{} // source vertex, target vertex, associated row
	var out []string
	var loop func(i int)
	loop = func(i int) {
		if i == len(tup) {
			e := [3]uint32{tup[0], tup[1]}
			s := fmt.Sprintf("%v->%v", refJoin(view(0).values(e[0], false)), refJoin(view(1).values(e[1], false)))
			if se.AttrSource >= 0 {
				e[2] = tup[se.AttrSource]
				s += fmt.Sprintf("|%v", se.Sources[se.AttrSource].Tbl.Row(e[2]))
			}
			if !seen[e] {
				out = append(out, s)
			}
			seen[e] = true
			return
		}
		for r := 0; r < size(i); r++ {
			tup[i] = uint32(r)
			ok := refHolds(t, se.Filters[i], val)
			for _, j := range se.Joins {
				ok = ok && (max(j.ASource, j.BSource) != i || refSame(val(j.ASource, j.ACol), val(j.BSource, j.BCol)))
			}
			if ok {
				loop(i + 1)
			}
		}
	}
	loop(0)
	sort.Strings(out)
	return out
}

const refUnbound = ^uint32(0) // a step the loops below have not bound yet

// refAttr reads a step of tuple b: slot i < len(nt) is pattern node i, slot
// len(nt)+j pattern edge j.
func refAttr(nt []*graph.VertexType, et []*graph.EdgeType, b []uint32, source, col int) value.Value {
	if source < len(nt) {
		return nt[source].AttrValue(b[source], col)
	}
	return et[source-len(nt)].AttrValue(b[source], col)
}

// referencePaths is Eq. 5 read literally: for every or-alternative and every
// concrete typing of its variant steps, nested loops over the instance lists
// of the pattern's edges in declaration order (a step shared by two edges
// must agree; a pattern of one step loops over its vertices), keeping the
// tuples on which every seed restriction, step condition and edge condition
// holds, decided by Expr.Eval on the whole tuple. visit sees each survivor.
func referencePaths(t *testing.T, e *Engine, sel *sema.Select, params map[string]value.Value,
	visit func(alt *sema.GraphAlt, nt []*graph.VertexType, et []*graph.EdgeType, b []uint32)) {
	for _, alt := range sel.GraphAlts {
		prep, err := e.prepareAlt(alt, params)
		if err != nil {
			t.Fatal(err)
		}
		pat := alt.Pattern
		nn := len(pat.Nodes)
		err = e.forEachTyping(pat, func(nt []*graph.VertexType, et []*graph.EdgeType) error {
			b := slices.Repeat([]uint32{refUnbound}, nn+len(pat.Edges))
			env := refEnv(func(source, col int) value.Value { return refAttr(nt, et, b, source, col) })
			holds := func() bool {
				for i, n := range pat.Nodes {
					if n.Seed != "" {
						if set := e.Cat.Subgraph(n.Seed).Vertices[nt[i]]; set == nil || !set.Get(b[i]) {
							return false
						}
					}
					if !refHolds(t, prep.nodeCond[i], env) {
						return false
					}
				}
				for j := range pat.Edges {
					if !refHolds(t, prep.edgeCond[j], env) {
						return false
					}
				}
				return true
			}
			var loop func(j int)
			loop = func(j int) {
				if j == len(pat.Edges) {
					if free := slices.Index(b[:nn], refUnbound); free >= 0 { // an edgeless step
						for v := 0; v < nt[free].Count(); v++ {
							b[free] = uint32(v)
							loop(j)
						}
						b[free] = refUnbound
					} else if holds() {
						visit(alt, nt, et, b)
					}
					return
				}
				pe := pat.Edges[j]
				if pe.Regex != nil {
					t.Fatal("reference: path regular expressions are not covered")
				}
				was := [2]uint32{b[pe.Src], b[pe.Dst]}
				for eid := range et[j].IDs() {
					src, dst := et[j].EdgeAt(eid)
					if (was[0] != refUnbound && was[0] != src) || (was[1] != refUnbound && was[1] != dst) ||
						(pe.Src == pe.Dst && src != dst) {
						continue
					}
					b[pe.Src], b[pe.Dst], b[nn+j] = src, dst, eid
					loop(j + 1)
				}
				b[pe.Src], b[pe.Dst], b[nn+j] = was[0], was[1], refUnbound
			}
			loop(0)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// referenceTable is the result of an into-table graph select (Fig. 13): one
// row per tuple of referencePaths, projected, as a sorted multiset.
func referenceTable(t *testing.T, e *Engine, sel *sema.Select, params map[string]value.Value) []string {
	out := []string{}
	referencePaths(t, e, sel, params, func(alt *sema.GraphAlt, nt []*graph.VertexType, et []*graph.EdgeType, b []uint32) {
		row := make([]value.Value, len(alt.Proj))
		for i, item := range alt.Proj {
			row[i] = refAttr(nt, et, b, item.Source, item.Col)
		}
		out = append(out, refJoin(row))
	})
	sort.Strings(out)
	return out
}

// referenceSubgraph is the result of a "select * ... into subgraph": every
// vertex and edge instance some tuple of referencePaths holds.
func referenceSubgraph(t *testing.T, e *Engine, sel *sema.Select, params map[string]value.Value) *graph.Subgraph {
	sub := graph.NewSubgraph("reference")
	referencePaths(t, e, sel, params, func(_ *sema.GraphAlt, nt []*graph.VertexType, et []*graph.EdgeType, b []uint32) {
		for i, vt := range nt {
			sub.VertexSet(vt).Set(b[i])
		}
		for j, etype := range et {
			sub.EdgeSet(etype).Set(b[len(nt)+j])
		}
	})
	return sub
}
