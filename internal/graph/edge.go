package graph

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"graql/internal/bitmap"
	"graql/internal/table"
	"graql/internal/value"
)

// Edge is one directed typed edge instance: source and target vertex ids
// (within the edge type's source/target vertex types) plus the row of the
// associated attribute table the edge carries (NoVertex when the edge type
// has no associated table).
type Edge struct {
	Src     VID
	Dst     VID
	AttrRow uint32
}

// EdgeType is a typed edge set E_i(V_a, V_b) built per paper Eq. 2:
//
//	E(a1..an) = (S ⋈ (σ_φ A)_{a1..an}) ⋈ T
//
// The edge set is materialised once at creation and frozen into a forward
// index (source → targets) and, unless disabled, a reverse index (target →
// sources), mirroring GEMS's bidirectional edge indexes (§III-B). An
// edge's id is its slot in the forward index; no edge list is kept. The
// declaration's shape alone chooses the forward index's form:
//
//   - The CSR form: offsets and targets, each source's edges in the order
//     they were derived.
//   - The functional form, a foreign key of the source: each source vertex
//     has at most one target, so the forward index is a column of
//     Src.Count() targets (NoVertex where there is none) and the edge id
//     is the source vertex.
//
// Edge ids range over [0, NumIDs()); Count() of them are present, all of
// them in the CSR form. IDs yields the present ones.
type EdgeType struct {
	ID   int
	Name string
	Src  *VertexType
	Dst  *VertexType

	fwd    CSR
	rev    CSR
	hasRev bool
	count  int // present edges
	// attrs is the associated table, whose rows are the edges'
	// attributes, or nil when the declaration had no attribute-bearing
	// table. origAttrRows maps each edge id to the row of attrs it was
	// derived from; maintenance also uses it to drop the edges of dead or
	// rewritten rows. nil when attrs is nil.
	attrs        *table.Table
	origAttrRows []uint32
	// fwdTail lets a later version append to a column's fwd.nbr in place
	// (table.Grow); nil when the column was frozen exactly.
	fwdTail *table.Tail
}

// NewEdgeType freezes the given edge list into an indexed edge type of
// the CSR form; attrs, when non-nil, is the associated table the edges'
// AttrRow address. buildReverse controls whether the reverse index is
// materialised (the paper builds it "when memory space on the cluster is
// available"; our E3 ablation measures its value).
func NewEdgeType(id int, name string, src, dst *VertexType, edges []Edge, attrs *table.Table, buildReverse bool) *EdgeType {
	return freeze(&EdgeType{ID: id, Name: name, hasRev: buildReverse}, false, src, dst, nil, nil, nil, edges, attrs)
}

// NewFunctionalEdgeType freezes the given edge list, at most one edge out
// of each source vertex, into an edge type of the functional form.
func NewFunctionalEdgeType(id int, name string, src, dst *VertexType, edges []Edge, buildReverse bool) *EdgeType {
	return freeze(&EdgeType{ID: id, Name: name, hasRev: buildReverse}, true, src, dst, nil, nil, nil, edges, nil)
}

// freeze derives an edge type between src and dst from old — empty for a
// build — and freezes it in the functional form or the CSR form: old's
// edges whose source, target and attribute row the carries (nil: the
// identity) keep, in slot order and remapped, then added. The functional
// form scatters them into a column (a later edge out of a source wins);
// the CSR form counting-sorts them by source, stably, so each source's row
// keeps their order, with their attribute rows. The sort walks the edges
// twice, once to count and once to place, and lists none. The reverse
// index, when old has one, is the forward index's transpose.
func freeze(old *EdgeType, functional bool, src, dst *VertexType, carrySrc, carryDst, carryAttr []uint32, added []Edge, attrs *table.Table) *EdgeType {
	et := &EdgeType{ID: old.ID, Name: old.Name, Src: src, Dst: dst, hasRev: old.hasRev, attrs: attrs}
	through := func(carry []uint32, id uint32) uint32 {
		if carry == nil {
			return id
		}
		return carry[id]
	}
	// each is the one survivor pass: f sees every edge of old that
	// survives, carried over, then every added edge.
	each := func(f func(Edge)) {
		for e, s := range old.IDs() {
			ed := Edge{Src: through(carrySrc, s), Dst: through(carryDst, old.fwd.nbr[e]), AttrRow: NoVertex}
			if attrs != nil {
				ed.AttrRow = through(carryAttr, old.origAttrRows[e])
			}
			if ed.Src != NoVertex && ed.Dst != NoVertex && (attrs == nil || ed.AttrRow != NoVertex) {
				f(ed)
			}
		}
		for _, ed := range added {
			f(ed)
		}
	}
	n, fwd := src.Count(), &et.fwd
	if functional {
		// A column that kept edges of old was re-frozen by a write: it
		// gets headroom for the next to append (appendColumn).
		fwd.nbr, et.fwdTail = grow(nil, nil, n, old.count == 0)
		for i := range fwd.nbr {
			fwd.nbr[i] = NoVertex
		}
		each(func(e Edge) { fwd.nbr[e.Src] = e.Dst })
	} else {
		fwd.offsets = make([]uint32, n+1)
		each(func(e Edge) { fwd.offsets[e.Src+1]++ })
		for i := 1; i <= n; i++ {
			fwd.offsets[i] += fwd.offsets[i-1]
		}
		fwd.nbr = make([]uint32, fwd.offsets[n])
		if attrs != nil {
			et.origAttrRows = make([]uint32, len(fwd.nbr))
		}
		cursor := slices.Clone(fwd.offsets[:n])
		each(func(e Edge) {
			slot := cursor[e.Src]
			cursor[e.Src]++
			fwd.nbr[slot] = e.Dst
			if attrs != nil {
				et.origAttrRows[slot] = e.AttrRow
			}
		})
	}
	et.count = fwd.NumEdges()
	if et.hasRev {
		et.rev = et.transpose()
	}
	return et
}

// Functional reports whether et has the functional form: edge id = source
// vertex, at most one edge out of each.
func (et *EdgeType) Functional() bool { return et.fwd.offsets == nil }

// Count returns the number of edge instances.
func (et *EdgeType) Count() int { return et.count }

// NumIDs returns the size of the edge id space, the forward index's
// slots: Count() in the CSR form, Src.Count() in the functional form. An
// edge bitmap has this length.
func (et *EdgeType) NumIDs() int { return len(et.fwd.nbr) }

// IDs yields the id and source of every present edge, ids ascending.
// Every pass over the edge set goes through it, or through EdgesInto when
// it keeps only the edges into a set of targets.
func (et *EdgeType) IDs() iter.Seq2[uint32, VID] { return et.EdgesInto(nil) }

// EdgeAt returns the endpoints of present edge e: its target is its
// slot's, its source the vertex whose row holds the slot.
func (et *EdgeType) EdgeAt(e uint32) (src, dst VID) {
	src = e
	if o := et.fwd.offsets; o != nil {
		src = uint32(sort.Search(len(o)-1, func(v int) bool { return o[v+1] > e }))
	}
	return src, et.fwd.nbr[e]
}

// Forward returns the source→target index (a column when functional).
func (et *EdgeType) Forward() *CSR { return &et.fwd }

// Reverse returns the target→source CSR index and whether it exists.
func (et *EdgeType) Reverse() (*CSR, bool) { return &et.rev, et.hasRev }

// HasReverse reports whether the reverse index was built.
func (et *EdgeType) HasReverse() bool { return et.hasRev }

// Index returns the index of one direction: source→target when forward,
// else the reverse index, nil when it was not built.
func (et *EdgeType) Index(forward bool) *CSR {
	switch {
	case forward:
		return &et.fwd
	case et.hasRev:
		return &et.rev
	}
	return nil
}

// EdgesInto yields, in ascending id order, the id and source of every
// present edge whose target is in to (nil: every edge). It is one tight
// pass over the forward index's slots with the filter inside it, for both
// forms; a source is found only for an edge that passes, by walking the
// rows forward from the last one found. It is the pass over the edge set
// that a backward expansion makes without the reverse index.
func (et *EdgeType) EdgesInto(to *bitmap.Bitmap) iter.Seq2[uint32, VID] {
	return func(yield func(uint32, VID) bool) {
		var s VID
		for e, d := range et.fwd.nbr {
			if d == NoVertex || to != nil && !to.Get(d) {
				continue
			}
			if s = et.fwd.source(uint32(e), s); !yield(uint32(e), s) {
				return
			}
		}
	}
}

// ScanBackward is the backward expansion when Index(false) is nil: one
// pass over the edge set ORs into out the source of every edge whose
// target is in from, walking all Count edges once for the whole set
// instead of once per member.
func (et *EdgeType) ScanBackward(from, out *bitmap.Bitmap) {
	for _, s := range et.EdgesInto(from) {
		out.Set(s)
	}
}

// Adjacent returns the vertices one edge away from v and the ids of the
// connecting edges: v's targets when forward, its sources otherwise.
// indexed reports that an index answered; nbr and ids then alias it and
// must not be modified. Without the reverse index (§III-B builds it only
// "when memory space ... is available") the backward direction degrades
// to a scan of the whole edge set, in id order, into fresh slices.
func (et *EdgeType) Adjacent(v VID, forward bool) (nbr []uint32, ids EdgeIDs, indexed bool) {
	if c := et.Index(forward); c != nil {
		nbr, ids = c.Neighbors(v)
		return nbr, ids, true
	}
	var eids []uint32
	for e, s := range et.IDs() {
		if et.fwd.nbr[e] == v {
			nbr = append(nbr, s)
			eids = append(eids, e)
		}
	}
	return nbr, EdgeIDs{eid: eids}, false
}

// AttrIndex resolves an edge attribute name to its column of the
// associated table.
func (et *EdgeType) AttrIndex(name string) (int, bool) {
	i := et.AttrSchema().Index(name)
	return i, i >= 0
}

// AttrType returns the type of a resolved edge attribute.
func (et *EdgeType) AttrType(col int) value.Type { return et.attrs.Schema()[col].Type }

// AttrValue returns attribute col of edge e.
func (et *EdgeType) AttrValue(e uint32, col int) value.Value {
	return et.attrs.Value(et.origAttrRows[e], col)
}

// AttrRows returns where the attributes AttrIndex resolves are stored: the
// associated table, and for each edge id the row of it holding the edge's
// attributes.
func (et *EdgeType) AttrRows() (*table.Table, []uint32) { return et.attrs, et.origAttrRows }

// AttrSchema returns the edge attribute schema, the associated table's
// (nil when no attributes).
func (et *EdgeType) AttrSchema() table.Schema {
	if et.attrs == nil {
		return nil
	}
	return et.attrs.Schema()
}

// AvgOutDegree returns |E| / |V_src| (catalog statistic for the planner).
func (et *EdgeType) AvgOutDegree() float64 {
	if et.Src.Count() == 0 {
		return 0
	}
	return float64(et.Count()) / float64(et.Src.Count())
}

// AvgInDegree returns |E| / |V_dst|.
func (et *EdgeType) AvgInDegree() float64 {
	if et.Dst.Count() == 0 {
		return 0
	}
	return float64(et.Count()) / float64(et.Dst.Count())
}

// DegreeStats summarises one direction of an edge type's degree
// distribution — the "statistical properties of the degree distribution"
// that the paper's dynamic analysis collects for the planner (§III-B).
type DegreeStats struct {
	Avg float64
	Max int
	P50 int
	P90 int
}

// OutDegreeStats returns the source-side degree distribution summary.
func (et *EdgeType) OutDegreeStats() DegreeStats {
	return degreeStats(&et.fwd, et.Src.Count(), et.AvgOutDegree())
}

// InDegreeStats returns the target-side degree distribution summary
// (computed from the reverse index when present, else from the forward
// index's targets).
func (et *EdgeType) InDegreeStats() DegreeStats {
	if et.hasRev {
		return degreeStats(&et.rev, et.Dst.Count(), et.AvgInDegree())
	}
	counts := make([]int, et.Dst.Count())
	for _, d := range et.fwd.nbr {
		if d != NoVertex {
			counts[d]++
		}
	}
	return summarize(counts, et.AvgInDegree())
}

func degreeStats(c *CSR, n int, avg float64) DegreeStats {
	counts := make([]int, n)
	for v := 0; v < n; v++ {
		counts[v] = c.Degree(uint32(v))
	}
	return summarize(counts, avg)
}

func summarize(counts []int, avg float64) DegreeStats {
	if len(counts) == 0 {
		return DegreeStats{Avg: avg}
	}
	sort.Ints(counts)
	return DegreeStats{
		Avg: avg,
		Max: counts[len(counts)-1],
		P50: counts[len(counts)/2],
		P90: counts[len(counts)*9/10],
	}
}

// Validate checks internal consistency; the tests run it on every type
// they build or maintain. The forward index has a row per source, each
// target is in range, Count of them are present and, with attributes, one
// attribute row is kept per id. The reverse index is the forward index's
// transpose: per target, the sources and ids of exactly its edges, ids
// ascending, and its ids share the sources' storage exactly when they are
// sources.
func (et *EdgeType) Validate() error {
	fwd, nSrc, nDst := &et.fwd, et.Src.Count(), et.Dst.Count()
	if fwd.numRows() != nSrc || !rowsCover(fwd) {
		return fmt.Errorf("graql: edge %s: forward index is not a row per source", et.Name)
	}
	n := 0
	for e := range et.IDs() {
		if int(fwd.nbr[e]) >= nDst {
			return fmt.Errorf("graql: edge %s[%d]: target out of range", et.Name, e)
		}
		n++
	}
	if n != et.count {
		return fmt.Errorf("graql: edge %s: %d present edges, count %d", et.Name, n, et.count)
	}
	if et.attrs != nil {
		if len(et.origAttrRows) != et.NumIDs() {
			return fmt.Errorf("graql: edge %s: attribute rows do not match the ids", et.Name)
		}
		for _, r := range et.origAttrRows {
			if int(r) >= et.attrs.NumRows() {
				return fmt.Errorf("graql: edge %s: attribute row %d out of range", et.Name, r)
			}
		}
	}
	if !et.hasRev {
		return nil
	}
	rev := &et.rev
	if rev.offsets == nil || rev.numRows() != nDst || !rowsCover(rev) || len(rev.nbr) != n || len(rev.eid) != n ||
		n > 0 && (&rev.eid[0] == &rev.nbr[0]) != et.Functional() {
		return fmt.Errorf("graql: edge %s: reverse index shape mismatch", et.Name)
	}
	for d := range uint32(nDst) {
		lo, hi := rev.row(d)
		for i := lo; i < hi; i++ {
			e := rev.eid[i]
			if int(e) >= len(fwd.nbr) || fwd.nbr[e] != d || i > lo && e <= rev.eid[i-1] {
				return fmt.Errorf("graql: edge %s: reverse index is not the transpose at target %d", et.Name, d)
			}
			if s, _ := et.EdgeAt(e); s != rev.nbr[i] {
				return fmt.Errorf("graql: edge %s: reverse index names the wrong source of edge %d", et.Name, e)
			}
		}
	}
	return nil
}

// rowsCover reports whether c's rows tile its slots: offsets, if any,
// start at 0, never descend and end at the last slot.
func rowsCover(c *CSR) bool {
	o := c.offsets
	if o == nil {
		return true
	}
	for v := 1; v < len(o); v++ {
		if o[v-1] > o[v] {
			return false
		}
	}
	return o[0] == 0 && int(o[len(o)-1]) == len(c.nbr)
}
