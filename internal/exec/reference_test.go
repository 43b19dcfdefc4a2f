package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"graql/internal/expr"
	"graql/internal/sema"
	"graql/internal/value"
)

// A deliberately naive reading of the paper's view equations, the referee
// every production route to a view is compared against: Eq. 1 as a scan
// with a linear search for the key, Eq. 2 as nested loops. It shares
// nothing with the engine but value, read access to tables and the
// analysed declarations (the first brick of ROADMAP item 1's reference
// evaluator). Keep it auditable by eye: no index, no hashing.

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

// values returns vertex i's key or, with attrs, what conditions can read.
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
	val := func(i, col int) value.Value {
		if se.Sources[i].IsVertex {
			return view(i).values(tup[i], true)[col]
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
