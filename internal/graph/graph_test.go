package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graql/internal/table"
	"graql/internal/value"
)

func baseTable(t *testing.T, rows [][2]string) *table.Table {
	t.Helper()
	tb := table.MustNew("Base", table.Schema{
		{Name: "id", Type: value.Varchar(10)},
		{Name: "grp", Type: value.Varchar(10)},
	})
	for _, r := range rows {
		vals := []value.Value{value.NewString(r[0]), value.NewString(r[1])}
		if r[0] == "" {
			vals[0] = value.NewNull(value.KindString)
		}
		if err := tb.AppendRow(vals); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestOneToOneVertexType(t *testing.T) {
	tb := baseTable(t, [][2]string{{"a", "g1"}, {"b", "g1"}, {"c", "g2"}})
	vt, err := BuildVertexType(0, "V", tb, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vt.OneToOne {
		t.Error("unique keys must give a one-to-one mapping")
	}
	if vt.Count() != 3 {
		t.Fatalf("count = %d", vt.Count())
	}
	// One-to-one vertices expose every base column.
	col, ok := vt.AttrIndex("grp")
	if !ok {
		t.Fatal("grp attribute missing")
	}
	v, ok := vt.LookupKeyValues([]value.Value{value.NewString("b")})
	if !ok {
		t.Fatal("lookup b failed")
	}
	if vt.AttrValue(v, col).Str() != "g1" {
		t.Error("attribute access through view wrong")
	}
	if vt.VIDForRow(1) != v {
		t.Error("row→vid mapping wrong")
	}
}

func TestManyToOneVertexType(t *testing.T) {
	tb := baseTable(t, [][2]string{{"a", "g1"}, {"b", "g1"}, {"c", "g2"}, {"d", "g1"}})
	vt, err := BuildVertexType(0, "G", tb, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vt.OneToOne {
		t.Error("repeated keys must give a many-to-one mapping")
	}
	if vt.Count() != 2 {
		t.Fatalf("count = %d, want 2", vt.Count())
	}
	// Many-to-one vertices expose only the key columns.
	if _, ok := vt.AttrIndex("id"); ok {
		t.Error("non-key attribute must not be visible on a many-to-one view")
	}
	if _, ok := vt.AttrIndex("grp"); !ok {
		t.Error("key attribute must be visible")
	}
	// All rows with the same key map to one vertex.
	if vt.VIDForRow(0) != vt.VIDForRow(1) || vt.VIDForRow(0) != vt.VIDForRow(3) {
		t.Error("rows with equal keys must share the vertex")
	}
	if vt.VIDForRow(0) == vt.VIDForRow(2) {
		t.Error("distinct keys must get distinct vertices")
	}
}

func TestNullKeysAndFilter(t *testing.T) {
	tb := baseTable(t, [][2]string{{"a", "g1"}, {"", "g2"}, {"c", "g3"}})
	vt, err := BuildVertexType(0, "V", tb, []int{0}, func(row uint32) (bool, error) {
		return tb.Value(row, 1).Str() != "g3", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vt.Count() != 1 { // NULL key row skipped, g3 filtered
		t.Fatalf("count = %d, want 1", vt.Count())
	}
	if vt.VIDForRow(1) != NoVertex || vt.VIDForRow(2) != NoVertex {
		t.Error("filtered rows must map to NoVertex")
	}
}

// TestVertexLayoutBytes pins what a vertex type stores: its key column
// numbers, baseRow (4|V|), rowToVID (4 per base row) and the key index (4
// per slot, the least power of two, at least 8, holding two slots per
// vertex), and no table but its base, from whose rows every attribute,
// key included, is read.
func TestVertexLayoutBytes(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var oneToOne, manyToOne, filtered, nullKeyed int
	for i := range 80 {
		n := r.Intn(40)
		rows := make([][2]string, n)
		for j := range rows {
			rows[j] = [2]string{fmt.Sprintf("k%d", j), fmt.Sprintf("g%d", r.Intn(5))}
			if i%2 == 1 { // repeated keys: many-to-one
				rows[j][0] = fmt.Sprintf("k%d", r.Intn(n/3+1))
			}
			if i%4 >= 2 && r.Intn(4) == 0 {
				rows[j][0] = "" // a NULL key
				nullKeyed++
			}
		}
		keyCols := []int{0}
		if i%5 == 0 {
			keyCols = []int{0, 1}
		}
		var where RowPred
		if i%3 == 0 {
			where = func(row uint32) (bool, error) { return row%3 != 1, nil }
			filtered++
		}
		base := baseTable(t, rows)
		vt, err := BuildVertexType(0, "V", base, keyCols, where)
		if err != nil {
			t.Fatal(err)
		}
		if vt.OneToOne {
			oneToOne++
		} else {
			manyToOne++
		}
		slots := 0
		if v := vt.Count(); v > 0 {
			slots = 8
			for slots < 2*v {
				slots *= 2
			}
		}
		want := int(reflect.TypeFor[int]().Size())*len(keyCols) + 4*vt.Count() + 4*n + 4*slots
		if got := heldBytes(reflect.ValueOf(*vt), map[uintptr]bool{}); got != want {
			t.Errorf("case %d: one-to-one=%v |V|=%d rows=%d key=%v: %d bytes, want %d",
				i, vt.OneToOne, vt.Count(), n, keyCols, got, want)
		}
		rv := reflect.ValueOf(*vt)
		for f := range rv.NumField() {
			if fv := rv.Field(f); fv.Kind() == reflect.Pointer && fv.Pointer() != reflect.ValueOf(base).Pointer() {
				t.Errorf("case %d: field %s points at something other than the base table", i, rv.Type().Field(f).Name)
			}
		}
		if err := vt.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	if oneToOne == 0 || manyToOne == 0 || filtered == 0 || nullKeyed == 0 {
		t.Fatalf("cases cover %d one-to-one, %d many-to-one, %d filtered, %d NULL keys; want each", oneToOne, manyToOne, filtered, nullKeyed)
	}
}

// TestPatchVertexTypeMatchesBuild patches random vertex types — NULL
// keys, duplicate keys, one- and two-column keys, a row filter — under
// random writes that rewrite, delete and append rows, or replace the
// table whole, and checks each patch against a build over the new table:
// the same representative rows, row mapping, key index, accepted rows and
// mapping kind, flips between one-to-one and many-to-one in both
// directions included. The patch's Delta carries each old vertex whose key
// survives onto the new vertex with that key, drops the others, and lists
// ascending the vertices with a new key and, when either version is
// one-to-one, those of rewritten rows.
func TestPatchVertexTypeMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	var toMany, toOne int
	for trial := range 600 {
		keys := 2 + r.Intn(40)
		row := func() [2]string {
			k := [2]string{fmt.Sprintf("k%d", r.Intn(keys)), fmt.Sprintf("g%d", r.Intn(4))}
			if r.Intn(8) == 0 {
				k[0] = "" // a NULL key
			}
			return k
		}
		oldRows := make([][2]string, r.Intn(20))
		for i := range oldRows {
			oldRows[i] = row()
		}
		keyCols := []int{0}
		if trial%4 == 1 {
			keyCols = []int{0, 1}
		}
		whereOf := func(tb *table.Table) RowPred { return nil }
		if trial%3 == 0 {
			whereOf = func(tb *table.Table) RowPred {
				return func(row uint32) (bool, error) { return tb.Value(row, 1).Str() != "g3", nil }
			}
		}

		var rows [][2]string
		var d *Delta
		if r.Intn(10) == 0 {
			for range r.Intn(20) {
				rows = append(rows, row())
			}
			d = Replaced(len(oldRows), len(rows))
		} else {
			d = &Delta{}
			remap, deleted := make([]uint32, len(oldRows)), false
			for i, o := range oldRows {
				if r.Intn(5) == 0 {
					remap[i], deleted = NoVertex, true
					continue
				}
				remap[i] = uint32(len(rows))
				if r.Intn(5) == 0 {
					o = row()
					d.Changed = append(d.Changed, uint32(len(rows)))
				}
				rows = append(rows, o)
			}
			for range r.Intn(4) {
				d.Changed = append(d.Changed, uint32(len(rows)))
				rows = append(rows, row())
			}
			if deleted {
				d.Remap = remap
			}
		}
		what := fmt.Sprintf("trial %d: %v -> %v, key %v, delta %+v", trial, oldRows, rows, keyCols, *d)

		oldBase, newBase := baseTable(t, oldRows), baseTable(t, rows)
		old, err := BuildVertexType(0, "V", oldBase, keyCols, whereOf(oldBase))
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildVertexType(0, "V", newBase, keyCols, whereOf(newBase))
		if err != nil {
			t.Fatal(err)
		}
		got, vd, err := PatchVertexType(old, newBase, d, whereOf(newBase))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.baseRow, want.baseRow) || !slices.Equal(got.rowToVID, want.rowToVID) ||
			got.accepted != want.accepted || got.OneToOne != want.OneToOne {
			t.Fatalf("%s: patched baseRow %v rowToVID %v accepted %d one-to-one %v, built %v %v %d %v", what,
				got.baseRow, got.rowToVID, got.accepted, got.OneToOne, want.baseRow, want.rowToVID, want.accepted, want.OneToOne)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		keyOf := func(vt *VertexType, v VID) []value.Value {
			vals := make([]value.Value, len(keyCols))
			for i, c := range keyCols {
				vals[i] = vt.AttrValue(v, c)
			}
			return vals
		}
		for v := range VID(want.Count()) {
			if u, ok := got.LookupKeyValues(keyOf(want, v)); !ok || u != v {
				t.Fatalf("%s: the patched key index resolves the key of vertex %d to %d (found %v)", what, v, u, ok)
			}
		}
		for v := range VID(old.Count()) {
			nv := v
			if vd.Remap != nil {
				nv = vd.Remap[v]
			}
			u, ok := got.LookupKeyValues(keyOf(old, v))
			if ok != (nv != NoVertex) || ok && u != nv {
				t.Fatalf("%s: old vertex %d maps to %d, its key to %d (found %v)", what, v, nv, u, ok)
			}
		}
		for i, v := range vd.Changed {
			if int(v) >= got.Count() || i > 0 && v <= vd.Changed[i-1] {
				t.Fatalf("%s: changed vertices %v are not ascending new vertices", what, vd.Changed)
			}
		}
		// Changed holds the vertices with a new key and, when either
		// version is one-to-one, those of rewritten rows.
		rewritten := map[VID]bool{}
		for _, r := range d.Changed {
			rewritten[got.rowToVID[r]] = true
		}
		for v := range VID(got.Count()) {
			_, known := old.LookupKeyValues(keyOf(got, v))
			want := !known || (old.OneToOne || got.OneToOne) && rewritten[v]
			if slices.Contains(vd.Changed, v) != want {
				t.Fatalf("%s: vertex %d listed changed %v, want %v", what, v, !want, want)
			}
		}
		switch {
		case old.OneToOne && !got.OneToOne:
			toMany++
		case !old.OneToOne && got.OneToOne:
			toOne++
		}
	}
	if toMany == 0 || toOne == 0 {
		t.Fatalf("%d flips to many-to-one, %d to one-to-one; want both", toMany, toOne)
	}
}

func edgeFixture(t *testing.T, numV int, pairs [][2]uint32, reverse bool) (*VertexType, *EdgeType) {
	t.Helper()
	rows := make([][2]string, numV)
	for i := range rows {
		rows[i] = [2]string{fmt.Sprintf("v%d", i), "g"}
	}
	tb := baseTable(t, rows)
	vt, err := BuildVertexType(0, "V", tb, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = Edge{Src: p[0], Dst: p[1]}
	}
	et := NewEdgeType(0, "e", vt, vt, edges, nil, reverse)
	return vt, et
}

func TestCSRStructure(t *testing.T) {
	_, et := edgeFixture(t, 4, [][2]uint32{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {0, 1}}, true)
	if err := et.Validate(); err != nil {
		t.Fatal(err)
	}
	fwd := et.Forward()
	if fwd.Degree(0) != 3 || fwd.Degree(1) != 1 || fwd.Degree(2) != 0 || fwd.Degree(3) != 1 {
		t.Error("forward degrees wrong")
	}
	// Parallel edges preserved (multigraph, §II-A1).
	nbr, ids := fwd.Neighbors(0)
	count01 := 0
	for i, n := range nbr {
		if n == 1 {
			count01++
		}
		s, d := et.EdgeAt(ids.At(i))
		if s != 0 || d != n {
			t.Error("edge ids must map back to endpoints")
		}
	}
	if count01 != 2 {
		t.Errorf("parallel edges 0→1: %d, want 2", count01)
	}
	rev, ok := et.Reverse()
	if !ok {
		t.Fatal("reverse index missing")
	}
	if rev.Degree(1) != 2 || rev.Degree(0) != 1 {
		t.Error("reverse degrees wrong")
	}
}

// Property: the reverse CSR contains exactly the transposed edges of the
// forward CSR, on random multigraphs.
func TestReverseIsTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(20)
		m := r.Intn(60)
		pairs := make([][2]uint32, m)
		for i := range pairs {
			pairs[i] = [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))}
		}
		_, et := edgeFixture(t, n, pairs, true)
		fwd := et.Forward()
		rev, _ := et.Reverse()
		type pair struct{ s, d, e uint32 }
		f := map[pair]bool{}
		for v := uint32(0); v < uint32(n); v++ {
			nbr, ids := fwd.Neighbors(v)
			for i := range nbr {
				f[pair{v, nbr[i], ids.At(i)}] = true
			}
		}
		for v := uint32(0); v < uint32(n); v++ {
			nbr, ids := rev.Neighbors(v)
			for i := range nbr {
				e := ids.At(i)
				if !f[pair{nbr[i], v, e}] {
					t.Fatalf("reverse edge (%d←%d #%d) not in forward index", v, nbr[i], e)
				}
				delete(f, pair{nbr[i], v, e})
			}
		}
		if len(f) != 0 {
			t.Fatalf("%d forward edges missing from reverse index", len(f))
		}
	}
}

// TestAdjacent: the one adjacency accessor against a hand-built
// multigraph. Forward answers from the forward CSR with or without the
// reverse index; backward answers from the reverse CSR when it exists and
// from a scan of the edge set when it does not, and either way returns
// every source with the id of its connecting edge, parallel edges
// included, ids ascending.
func TestAdjacent(t *testing.T) {
	pairs := [][2]uint32{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {0, 1}, {2, 2}}
	// An edge's id is its forward slot: sources ascending, list order
	// within one source.
	slot := []uint32{0, 1, 3, 5, 2, 4}
	idsOf := func(nbr []uint32, ids EdgeIDs) []uint32 {
		out := make([]uint32, len(nbr))
		for i := range nbr {
			out[i] = ids.At(i)
		}
		return out
	}
	pairsOf := func(nbr, eids []uint32) map[[2]uint32]bool { // (neighbour, edge id)
		out := map[[2]uint32]bool{}
		for i := range nbr {
			out[[2]uint32{nbr[i], eids[i]}] = true
		}
		return out
	}
	for _, reverse := range []bool{true, false} {
		_, et := edgeFixture(t, 5, pairs, reverse)
		for v := uint32(0); v < 5; v++ {
			wantOut, wantIn := map[[2]uint32]bool{}, map[[2]uint32]bool{}
			for e, p := range pairs {
				if p[0] == v {
					wantOut[[2]uint32{p[1], slot[e]}] = true
				}
				if p[1] == v {
					wantIn[[2]uint32{p[0], slot[e]}] = true
				}
			}
			nbr, ids, indexed := et.Adjacent(v, true)
			if got := pairsOf(nbr, idsOf(nbr, ids)); !indexed || len(nbr) != len(wantOut) || !reflect.DeepEqual(got, wantOut) {
				t.Errorf("reverse=%v: forward of %d = %v (indexed %v), want %v", reverse, v, got, indexed, wantOut)
			}
			nbr, ids, indexed = et.Adjacent(v, false)
			eids := idsOf(nbr, ids)
			if got := pairsOf(nbr, eids); indexed != reverse || len(nbr) != len(wantIn) || !reflect.DeepEqual(got, wantIn) {
				t.Errorf("reverse=%v: backward of %d = %v (indexed %v), want %v", reverse, v, got, indexed, wantIn)
			}
			if !slices.IsSorted(eids) {
				t.Errorf("reverse=%v: backward must list edges in id order, got %v", reverse, eids)
			}
		}
		// The indexed paths alias the CSR, never copy it.
		nbr, _, _ := et.Adjacent(0, true)
		csr, _ := et.Forward().Neighbors(0)
		if &nbr[0] != &csr[0] {
			t.Errorf("reverse=%v: forward neighbours were copied", reverse)
		}
	}
}

func TestAvgDegreeAndMissingReverse(t *testing.T) {
	_, et := edgeFixture(t, 4, [][2]uint32{{0, 1}, {0, 2}, {1, 2}}, false)
	if got := et.AvgOutDegree(); got != 0.75 {
		t.Errorf("avg out degree = %v", got)
	}
	if _, ok := et.Reverse(); ok {
		t.Error("reverse index should be absent when disabled")
	}
}

func TestGraphRegistry(t *testing.T) {
	g := NewGraph()
	vt, et := edgeFixture(t, 3, [][2]uint32{{0, 1}}, true)
	if err := g.AddVertexType(vt); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertexType(vt); err == nil {
		t.Error("duplicate vertex type must fail")
	}
	if err := g.AddEdgeType(et); err != nil {
		t.Fatal(err)
	}
	if g.VertexType("v") != vt { // case-insensitive
		t.Error("lookup must be case-insensitive")
	}
	if got := g.EdgeTypesBetween(vt, vt); len(got) != 1 || got[0] != et {
		t.Error("EdgeTypesBetween wrong")
	}
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Error("totals wrong")
	}
}

func TestSubgraphSets(t *testing.T) {
	vt, et := edgeFixture(t, 5, [][2]uint32{{0, 1}, {1, 2}}, true)
	s := NewSubgraph("s")
	s.VertexSet(vt).Set(0)
	s.VertexSet(vt).Set(3)
	s.EdgeSet(et).Set(1)
	if s.NumVertices() != 2 || s.NumEdges() != 1 {
		t.Error("subgraph counts wrong")
	}
}

// TestFunctionalForm: a column with holes answers like the edge list it
// stands for — ids are sources, the id space is the source count, the
// reverse CSR is the column's transpose — and Validate rejects each way
// the form can break.
func TestFunctionalForm(t *testing.T) {
	vt, _ := edgeFixture(t, 5, nil, true)
	col := []uint32{2, NoVertex, 2, 0, NoVertex}
	edges := []Edge{{Src: 3, Dst: 0}, {Src: 0, Dst: 2}, {Src: 2, Dst: 2}}
	et := NewFunctionalEdgeType(0, "fk", vt, vt, edges, true)
	if err := et.Validate(); err != nil {
		t.Fatal(err)
	}
	if !et.Functional() || et.Count() != 3 || et.NumIDs() != 5 {
		t.Fatalf("functional %v, count %d, ids %d", et.Functional(), et.Count(), et.NumIDs())
	}
	var ids []uint32
	for e := range et.IDs() {
		s, d := et.EdgeAt(e)
		if s != e || d != col[e] {
			t.Errorf("EdgeAt(%d) = (%d, %d)", e, s, d)
		}
		ids = append(ids, e)
	}
	if !slices.Equal(ids, []uint32{0, 2, 3}) {
		t.Errorf("IDs = %v, want [0 2 3]", ids)
	}
	if nbr, _ := et.Forward().Neighbors(1); len(nbr) != 0 {
		t.Errorf("a hole has neighbours %v", nbr)
	}
	if nbr, ids := et.Forward().Neighbors(3); !slices.Equal(nbr, []uint32{0}) || ids.At(0) != 3 {
		t.Errorf("Neighbors(3) = %v, id %d", nbr, ids.At(0))
	}
	rev, _ := et.Reverse()
	if nbr, ids := rev.Neighbors(2); !slices.Equal(nbr, []uint32{0, 2}) || ids.At(0) != 0 || ids.At(1) != 2 {
		t.Errorf("reverse Neighbors(2) = %v, ids %d %d, want sources [0 2] as ids", nbr, ids.At(0), ids.At(1))
	}
	if et.Forward().NumEdges() != 3 || rev.NumEdges() != 3 || et.OutDegreeStats().Max != 1 || et.InDegreeStats().Max != 2 {
		t.Error("index sizes or degree stats wrong")
	}
	if s := NewSubgraph("s"); s.EdgeSet(et).Len() != 5 {
		t.Error("an edge set spans the id space")
	}

	// Each way a form can break, in both forms: the CSR form over the
	// same edges has slots 0, 1, 2 for sources 0, 2, 3.
	for _, functional := range []bool{true, false} {
		broken := func(what string, mutate func(*EdgeType)) {
			c := NewEdgeType(0, "e", vt, vt, edges, nil, true)
			if functional {
				c = NewFunctionalEdgeType(0, "fk", vt, vt, edges, true)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("functional=%v: %v", functional, err)
			}
			mutate(c)
			if c.Validate() == nil {
				t.Errorf("functional=%v: Validate accepts %s", functional, what)
			}
		}
		broken("a short forward index", func(c *EdgeType) { c.fwd.nbr = c.fwd.nbr[:len(c.fwd.nbr)-1] })
		broken("a target out of range", func(c *EdgeType) { c.fwd.nbr[1] = 5 })
		broken("a wrong count", func(c *EdgeType) { c.count = 2 })
		broken("descending reverse ids", func(c *EdgeType) {
			lo := c.rev.offsets[2]
			slices.Reverse(c.rev.nbr[lo : lo+2])
			if !c.Functional() { // a column's ids are its sources
				slices.Reverse(c.rev.eid[lo : lo+2])
			}
		})
		broken("a reverse entry off the forward index", func(c *EdgeType) { c.rev.nbr[0] = 1 })
		broken("reverse ids stored apart from sources they equal, or aliasing sources", func(c *EdgeType) {
			if c.Functional() {
				c.rev.eid = slices.Clone(c.rev.nbr)
			} else {
				c.rev.eid = c.rev.nbr
			}
		})
	}
}
