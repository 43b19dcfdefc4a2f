package graph

import (
	"fmt"
	"iter"
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
// sources), mirroring GEMS's bidirectional edge indexes (§III-B). It has
// one of two forms, chosen by the declaration's shape:
//
//   - The CSR form keeps the edge list (srcs, dsts; edge id = position)
//     and a CSR in each direction.
//   - The functional form is a foreign key of the source: each source
//     vertex has at most one target, and the edge id is the source vertex.
//     Its forward index is a column of Src.Count() targets (NoVertex where
//     there is none) and its reverse CSR lists sources, which are the ids.
//
// Edge ids range over [0, NumIDs()); Count() of them are present, all of
// them in the CSR form. IDs yields the present ones.
type EdgeType struct {
	ID   int
	Name string
	Src  *VertexType
	Dst  *VertexType
	// Attrs is the edge attribute table (one row per edge, gathered from
	// the associated table), or nil when the declaration had no
	// attribute-bearing table.
	Attrs *table.Table

	srcs, dsts []uint32 // the CSR form's edge list; nil when functional
	fwd        CSR
	rev        CSR
	hasRev     bool
	count      int // present edges
	// origAttrRows maps each edge to the row of the associated source
	// table it was derived from (Attrs itself is re-gathered so edge id ==
	// attribute row). Maintenance uses it to drop the edges of dead or
	// rewritten rows and to gather Attrs again. nil when Attrs is nil.
	origAttrRows []uint32
}

// NewEdgeType freezes the given edge list into an indexed edge type of
// the CSR form: the patch of an empty type that adds every edge. attrs,
// when non-nil, is the associated table the edges' AttrRow address.
// buildReverse controls whether the reverse index is materialised (the
// paper builds it "when memory space on the cluster is available"; our E3
// ablation measures its value).
func NewEdgeType(id int, name string, src, dst *VertexType, edges []Edge, attrs *table.Table, buildReverse bool) *EdgeType {
	empty := &EdgeType{ID: id, Name: name, hasRev: buildReverse}
	return patchList(empty, src, dst, nil, nil, nil, edges, attrs)
}

// NewFunctionalEdgeType freezes the given edge list, at most one edge out
// of each source vertex, into an edge type of the functional form: the
// patch of an empty functional type that adds every edge.
func NewFunctionalEdgeType(id int, name string, src, dst *VertexType, edges []Edge, buildReverse bool) *EdgeType {
	empty := &EdgeType{ID: id, Name: name, hasRev: buildReverse}
	return patchColumn(empty, src, dst, nil, nil, edges)
}

// Functional reports whether et has the functional form: edge id = source
// vertex, at most one edge out of each.
func (et *EdgeType) Functional() bool { return et.fwd.offsets == nil }

// Count returns the number of edge instances.
func (et *EdgeType) Count() int { return et.count }

// NumIDs returns the size of the edge id space: Count() in the CSR form,
// Src.Count() in the functional form. An edge bitmap has this length.
func (et *EdgeType) NumIDs() int {
	if et.Functional() {
		return len(et.fwd.nbr)
	}
	return len(et.srcs)
}

// IDs yields the id of every present edge in ascending order. Every pass
// over the edge set goes through it, or through EdgesInto when it keeps
// only the edges into a set of targets.
func (et *EdgeType) IDs() iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		if !et.Functional() {
			for e := range uint32(len(et.srcs)) {
				if !yield(e) {
					return
				}
			}
			return
		}
		for s, t := range et.fwd.nbr {
			if t != NoVertex && !yield(uint32(s)) {
				return
			}
		}
	}
}

// EdgeAt returns the endpoints of present edge e.
func (et *EdgeType) EdgeAt(e uint32) (src, dst VID) {
	if et.Functional() {
		return e, et.fwd.nbr[e]
	}
	return et.srcs[e], et.dsts[e]
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
// present edge whose target is in to: IDs filtered by target, with the
// form decided once and the filter inside the pass. It is the one pass
// over the edge set that a backward expansion makes without the reverse
// index.
func (et *EdgeType) EdgesInto(to *bitmap.Bitmap) iter.Seq2[uint32, VID] {
	return func(yield func(uint32, VID) bool) {
		if et.Functional() {
			for s, d := range et.fwd.nbr {
				if d != NoVertex && to.Get(d) && !yield(uint32(s), uint32(s)) {
					return
				}
			}
			return
		}
		for e, d := range et.dsts {
			if to.Get(d) && !yield(uint32(e), et.srcs[e]) {
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
// indexed reports that an index answered; nbr and eids then alias it and
// must not be modified, and eids is nil when the ids are v (EdgeID).
// Without the reverse index (§III-B builds it only "when memory space ...
// is available") the backward direction degrades to a scan of the whole
// edge set, in edge-id order, into fresh slices.
func (et *EdgeType) Adjacent(v VID, forward bool) (nbr, eids []uint32, indexed bool) {
	if c := et.Index(forward); c != nil {
		nbr, eids = c.Neighbors(v)
		return nbr, eids, true
	}
	for e := range et.IDs() {
		if s, d := et.EdgeAt(e); d == v {
			nbr = append(nbr, s)
			eids = append(eids, e)
		}
	}
	return nbr, eids, false
}

// AttrIndex resolves an edge attribute name, addressing the Attrs table.
func (et *EdgeType) AttrIndex(name string) (int, bool) {
	if et.Attrs == nil {
		return -1, false
	}
	i := et.Attrs.Schema().Index(name)
	return i, i >= 0
}

// AttrType returns the type of a resolved edge attribute.
func (et *EdgeType) AttrType(col int) value.Type { return et.Attrs.Schema()[col].Type }

// AttrValue returns attribute col of edge e.
func (et *EdgeType) AttrValue(e uint32, col int) value.Value { return et.Attrs.Value(e, col) }

// AttrSchema returns the edge attribute schema (nil when no attributes).
func (et *EdgeType) AttrSchema() table.Schema {
	if et.Attrs == nil {
		return nil
	}
	return et.Attrs.Schema()
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
// (computed from the reverse index when present, else from the edge list).
func (et *EdgeType) InDegreeStats() DegreeStats {
	if et.hasRev {
		return degreeStats(&et.rev, et.Dst.Count(), et.AvgInDegree())
	}
	counts := make([]int, et.Dst.Count())
	for e := range et.IDs() {
		_, d := et.EdgeAt(e)
		counts[d]++
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

// Validate checks internal consistency (used by tests and after every
// maintained write). The CSR form: endpoint ids are in range and both
// indexes hold every edge. The functional form: the column has one entry
// per source, each a target or NoVertex, Count of them present, and the
// reverse CSR is the column's transpose with ascending sources.
func (et *EdgeType) Validate() error {
	if et.Functional() {
		return et.validateColumn()
	}
	for i := range et.srcs {
		if int(et.srcs[i]) >= et.Src.Count() {
			return fmt.Errorf("graql: edge %s[%d]: source out of range", et.Name, i)
		}
		if int(et.dsts[i]) >= et.Dst.Count() {
			return fmt.Errorf("graql: edge %s[%d]: target out of range", et.Name, i)
		}
	}
	if len(et.srcs) != et.count || et.fwd.NumEdges() != et.count {
		return fmt.Errorf("graql: edge %s: forward index size mismatch", et.Name)
	}
	if et.hasRev && et.rev.NumEdges() != et.count {
		return fmt.Errorf("graql: edge %s: reverse index size mismatch", et.Name)
	}
	return nil
}

func (et *EdgeType) validateColumn() error {
	col, nDst := et.fwd.nbr, et.Dst.Count()
	if len(col) != et.Src.Count() {
		return fmt.Errorf("graql: edge %s: column has %d entries for %d sources", et.Name, len(col), et.Src.Count())
	}
	n := 0
	for s, t := range col {
		if t == NoVertex {
			continue
		}
		if int(t) >= nDst {
			return fmt.Errorf("graql: edge %s[%d]: target out of range", et.Name, s)
		}
		n++
	}
	if n != et.count {
		return fmt.Errorf("graql: edge %s: %d present entries, count %d", et.Name, n, et.count)
	}
	if !et.hasRev {
		return nil
	}
	rev := &et.rev
	if len(rev.offsets) != nDst+1 || rev.offsets[0] != 0 || int(rev.offsets[nDst]) != len(rev.nbr) || len(rev.nbr) != n ||
		len(rev.eid) != n || n > 0 && &rev.eid[0] != &rev.nbr[0] {
		return fmt.Errorf("graql: edge %s: reverse index shape mismatch", et.Name)
	}
	for d := range nDst {
		lo, hi := rev.offsets[d], rev.offsets[d+1]
		if lo > hi {
			return fmt.Errorf("graql: edge %s: reverse offsets descend at %d", et.Name, d)
		}
		for i := lo; i < hi; i++ {
			s := rev.nbr[i]
			if int(s) >= len(col) || col[s] != uint32(d) || i > lo && s <= rev.nbr[i-1] {
				return fmt.Errorf("graql: edge %s: reverse index is not the column's transpose at target %d", et.Name, d)
			}
		}
	}
	return nil
}
