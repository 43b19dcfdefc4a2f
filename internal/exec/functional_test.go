package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"graql/internal/catalog"
	"graql/internal/graph"
	"graql/internal/value"
)

// The foreign-key schema of TestFunctionalEdgeMatchesJoin: a self-edge
// with a source filter whose join is written target first, an edge from a
// filtered vertex type with a target filter, and an edge out of a
// many-to-one type. Every key column stays unique, so no type flips and
// no write is refused.
const fkTables = `create table Types(id integer, parent integer, grp integer)
create table Items(id integer, kind integer, w integer)`

const fkViews = `create vertex TypeVtx(id) from table Types
create vertex ItemVtx(id) from table Items where w > 2
create vertex KindVtx(kind) from table Items
create edge subclass with vertices (TypeVtx as A, TypeVtx as B) where B.id = A.parent and A.grp < 3
create edge kindOf with vertices (ItemVtx, TypeVtx) where ItemVtx.kind = TypeVtx.id and TypeVtx.grp <> 1
create edge kindType with vertices (KindVtx, TypeVtx) where KindVtx.kind = TypeVtx.id`

// fkModel is Eq. 2 for one foreign-key edge, read straight off the
// tables: a source row with a non-NULL key that srcOK accepts leads from
// its key to the Types row whose id equals its fk cell, when dstOK
// accepts that row.
type fkModel struct {
	edge, src    string
	key, fk      int
	srcOK, dstOK func(row []value.Value) bool
}

var fkModels = []fkModel{
	{"subclass", "Types", 0, 1, func(row []value.Value) bool { return !row[2].IsNull() && row[2].Int() < 3 },
		func([]value.Value) bool { return true }},
	{"kindOf", "Items", 0, 1, func(row []value.Value) bool { return !row[2].IsNull() && row[2].Int() > 2 },
		func(row []value.Value) bool { return !row[2].IsNull() && row[2].Int() != 1 }},
	{"kindType", "Items", 1, 1, func([]value.Value) bool { return true }, func([]value.Value) bool { return true }},
}

func (m fkModel) edges(e *Engine) []string {
	types := map[string][]value.Value{}
	tt := e.Cat.Table("Types")
	for r := uint32(0); r < uint32(tt.NumRows()); r++ {
		if row := tt.Row(r); !row[0].IsNull() {
			types[row[0].String()] = row
		}
	}
	set := map[string]bool{}
	st := e.Cat.Table(m.src)
	for r := uint32(0); r < uint32(st.NumRows()); r++ {
		row := st.Row(r)
		if row[m.key].IsNull() || !m.srcOK(row) || row[m.fk].IsNull() {
			continue
		}
		if d, ok := types[row[m.fk].String()]; ok && m.dstOK(d) {
			set[row[m.key].String()+"->"+row[m.fk].String()] = true
		}
	}
	var out []string
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// assertSameIndexes checks that got's indexes equal want's entry for
// entry: the forward column source by source, the reverse CSR target by
// target, edge ids included.
func assertSameIndexes(t *testing.T, what string, want, got *graph.EdgeType) {
	t.Helper()
	if !want.Functional() || !got.Functional() {
		t.Fatalf("%s: edge %s is not functional (built %v, patched %v)", what, want.Name, want.Functional(), got.Functional())
	}
	if want.NumIDs() != got.NumIDs() || want.Count() != got.Count() {
		t.Fatalf("%s: edge %s: %d ids / %d edges, want %d / %d", what, want.Name, got.NumIDs(), got.Count(), want.NumIDs(), want.Count())
	}
	same := func(dir string, a, b *graph.CSR, n int) {
		for v := range uint32(n) {
			wn, wi := a.Neighbors(v)
			gn, gi := b.Neighbors(v)
			we, ge := make([]uint32, len(wn)), make([]uint32, len(gn))
			for i := range we {
				we[i] = wi.At(i)
			}
			for i := range ge {
				ge[i] = gi.At(i)
			}
			if !slices.Equal(wn, gn) || !slices.Equal(we, ge) {
				t.Fatalf("%s: edge %s %s at %d: (%v, %v), want (%v, %v)", what, want.Name, dir, v, gn, ge, wn, we)
			}
		}
	}
	same("column", want.Forward(), got.Forward(), want.NumIDs())
	wr, wok := want.Reverse()
	gr, gok := got.Reverse()
	if wok != gok {
		t.Fatalf("%s: edge %s: reverse index %v, want %v", what, want.Name, gok, wok)
	}
	if wok {
		same("reverse", wr, gr, want.Dst.Count())
	}
}

// fkStatement draws one write against the foreign-key schema: fresh keys
// on insert and key rewrite, foreign keys that dangle, NULLs, and filter
// columns that move rows in and out.
func fkStatement(rng *rand.Rand, next *int) string {
	fresh := func() int { *next++; return *next }
	id := func() int { return rng.Intn(*next + 3) } // sometimes dangling
	fk := func() string { return nullOr(rng, fmt.Sprint(id())) }
	grp := func() string { return nullOr(rng, fmt.Sprint(rng.Intn(5))) }
	switch rng.Intn(11) {
	case 0, 1:
		var rows []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			rows = append(rows, fmt.Sprintf("(%d, %s, %s)", fresh(), fk(), grp()))
		}
		return "insert into Types values " + strings.Join(rows, ", ")
	case 2, 3:
		var rows []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			rows = append(rows, fmt.Sprintf("(%d, %s, %d)", fresh(), fk(), rng.Intn(6)))
		}
		return "insert into Items values " + strings.Join(rows, ", ")
	case 4:
		return fmt.Sprintf("update Types set parent = %s where id = %d", fk(), id())
	case 5:
		return fmt.Sprintf("update Types set grp = %s where id = %d", grp(), id())
	case 6:
		return fmt.Sprintf("update Types set id = %d where id = %d", fresh(), id())
	case 7:
		return fmt.Sprintf("update Items set kind = %s where id = %d", fk(), id())
	case 8:
		return fmt.Sprintf("update Items set w = %d where kind = %d", rng.Intn(6), id())
	case 9:
		return fmt.Sprintf("delete from Types where id = %d", id())
	}
	return fmt.Sprintf("delete from Items where kind = %d", id())
}

// TestFunctionalEdgeMatchesJoin: a foreign-key declaration builds the
// functional form, whose present edges are Eq. 2's; after every write the
// patched type equals a build from scratch over the same tables, column
// for column and reverse CSR for reverse CSR — a column has no append
// order, so a patch can match a build exactly — with and without reverse
// indexes.
func TestFunctionalEdgeMatchesJoin(t *testing.T) {
	for _, reverse := range []bool{true, false} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			opts := DefaultOptions()
			opts.Workers, opts.ReverseIndexes = 2, reverse
			inc := New(opts)
			mustExec(t, inc, fkTables+"\n"+fkViews, nil)
			next := 0
			var applied []string
			for step := 0; step < 40; step++ {
				stmt := fkStatement(rng, &next)
				applied = append(applied, stmt)
				mustExec(t, inc, stmt, nil)
				what := fmt.Sprintf("reverse=%v seed %d after %q", reverse, seed, applied)
				assertValidViews(t, what, inc)
				ref := New(opts)
				for _, tb := range inc.Cat.Tables() {
					ref.Cat.Publish(catalog.Change{Table: tb.Clone()})
				}
				mustExec(t, ref, fkViews, nil)
				g, rg := inc.Cat.Graph(), ref.Cat.Graph()
				for _, m := range fkModels {
					et := g.EdgeType(m.edge)
					if want, got := m.edges(inc), canonicalEdges(et); !slices.Equal(want, got) {
						t.Fatalf("%s: edge %s departs from Eq. 2\nwant %v\ngot  %v", what, m.edge, want, got)
					}
					assertSameIndexes(t, what, rg.EdgeType(m.edge), et)
				}
			}
		}
	}
}
