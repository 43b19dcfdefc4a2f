package graph

import (
	"fmt"
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
// The edge list is materialised once at creation and frozen into a forward
// CSR (source → targets) and, unless disabled, a reverse CSR (target →
// sources), mirroring GEMS's bidirectional edge indexes (§III-B).
type EdgeType struct {
	ID   int
	Name string
	Src  *VertexType
	Dst  *VertexType
	// Attrs is the edge attribute table (one row per edge, gathered from
	// the associated table), or nil when the declaration had no
	// attribute-bearing table.
	Attrs *table.Table

	srcs, dsts []uint32
	fwd        CSR
	rev        CSR
	hasRev     bool
	// origAttrRows maps each edge to the row of the associated source
	// table it was derived from (Attrs itself is re-gathered so edge id ==
	// attribute row). Maintenance uses it to drop the edges of dead or
	// rewritten rows and to gather Attrs again. nil when Attrs is nil.
	origAttrRows []uint32
}

// NewEdgeType freezes the given edge list into an indexed edge type: the
// patch of an empty type that adds every edge. attrs, when non-nil, is the
// associated table the edges' AttrRow address. buildReverse controls
// whether the reverse index is materialised (the paper builds it "when
// memory space on the cluster is available"; our E3 ablation measures its
// value).
func NewEdgeType(id int, name string, src, dst *VertexType, edges []Edge, attrs *table.Table, buildReverse bool) *EdgeType {
	empty := &EdgeType{ID: id, Name: name, hasRev: buildReverse}
	return PatchEdgeType(empty, src, dst, nil, nil, nil, edges, attrs)
}

// Count returns the number of edge instances.
func (et *EdgeType) Count() int { return len(et.srcs) }

// EdgeAt returns the endpoints of edge e.
func (et *EdgeType) EdgeAt(e uint32) (src, dst VID) { return et.srcs[e], et.dsts[e] }

// Forward returns the source→target CSR index.
func (et *EdgeType) Forward() *CSR { return &et.fwd }

// Reverse returns the target→source CSR index and whether it exists.
func (et *EdgeType) Reverse() (*CSR, bool) { return &et.rev, et.hasRev }

// HasReverse reports whether the reverse index was built.
func (et *EdgeType) HasReverse() bool { return et.hasRev }

// Index returns the CSR of one direction: source→target when forward,
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

// ScanBackward is the backward expansion when Index(false) is nil: one
// pass over the edge list ORs into out the source of every edge whose
// target is in from, walking all Count entries once for the whole set
// instead of once per member.
func (et *EdgeType) ScanBackward(from, out *bitmap.Bitmap) {
	for e, d := range et.dsts {
		if from.Get(d) {
			out.Set(et.srcs[e])
		}
	}
}

// Adjacent returns the vertices one edge away from v and the ids of the
// connecting edges: v's targets when forward, its sources otherwise.
// indexed reports that a CSR answered; nbr and eids then alias the index
// and must not be modified. Without the reverse index (§III-B builds it
// only "when memory space ... is available") the backward direction
// degrades to a scan of the whole edge list, in edge-id order, into fresh
// slices.
func (et *EdgeType) Adjacent(v VID, forward bool) (nbr, eids []uint32, indexed bool) {
	if c := et.Index(forward); c != nil {
		nbr, eids = c.Neighbors(v)
		return nbr, eids, true
	}
	for e, d := range et.dsts {
		if d == v {
			nbr = append(nbr, et.srcs[e])
			eids = append(eids, uint32(e))
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
	for _, d := range et.dsts {
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

// Validate checks internal consistency (used by tests and after IR
// decode): endpoint ids must be in range and the two CSRs must agree on
// the edge count.
func (et *EdgeType) Validate() error {
	for i := range et.srcs {
		if int(et.srcs[i]) >= et.Src.Count() {
			return fmt.Errorf("graql: edge %s[%d]: source out of range", et.Name, i)
		}
		if int(et.dsts[i]) >= et.Dst.Count() {
			return fmt.Errorf("graql: edge %s[%d]: target out of range", et.Name, i)
		}
	}
	if et.fwd.NumEdges() != len(et.srcs) {
		return fmt.Errorf("graql: edge %s: forward index size mismatch", et.Name)
	}
	if et.hasRev && et.rev.NumEdges() != len(et.srcs) {
		return fmt.Errorf("graql: edge %s: reverse index size mismatch", et.Name)
	}
	return nil
}
