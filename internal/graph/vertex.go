// Package graph implements the attributed-graph view layer of the GraQL
// data model: strongly typed vertex and edge types defined as views over
// tabular data (paper Eq. 1 and Eq. 2), and the bidirectional CSR edge
// indexes the GEMS backend traverses (paper §III-B).
//
// The overall database graph is a typed multigraph: the set of vertex types
// partitions the vertices and the set of edge types partitions the edges
// (paper §II-A1). Vertices are addressed by (vertex type, dense local id).
//
// An edge type keeps a CSR per direction and no edge list: an edge's id is
// its slot in the forward index. In the functional form — a foreign key
// of the source, each source vertex with at most one target — the forward
// index is a column of targets indexed by source vertex (unit rows, no
// offsets), so an edge's id is its source vertex, ids range over the
// source's vertices and only some are present. Both forms answer through
// one CSR type and one expansion kernel (CSR.ExpandRange), and
// EdgeType.IDs walks the present ids of either, row by row.
package graph

import (
	"fmt"
	"slices"

	"graql/internal/table"
	"graql/internal/value"
)

// VID is a dense local vertex id within one vertex type.
type VID = uint32

// NoVertex marks a base-table row that produced no vertex instance (it was
// filtered out or had a NULL key).
const NoVertex = ^uint32(0)

// VertexType is a view over a base table (paper Eq. 1):
//
//	V(a1..ak) = Π_{a1..ak} σ_φ(T)
//
// One vertex instance exists per distinct key combination among the rows
// satisfying the filter. When every filtered row has a distinct key the
// mapping is one-to-one and every base-table column is an attribute of the
// vertex; otherwise the mapping is many-to-one and only the key columns are
// attributes (paper §II-A, Figs. 4–5). Either way a vertex's attributes
// are the cells of its representative base row, addressed by base-table
// column number: the view stores the row of each vertex, the vertex of
// each row and the key index, and no cell of the table.
type VertexType struct {
	ID   int
	Name string
	Base *table.Table
	// KeyCols are the base-table column indexes forming the vertex key.
	KeyCols []int
	// OneToOne reports whether each vertex corresponds to exactly one
	// base row.
	OneToOne bool

	baseRow  []uint32        // vid -> representative (first) base row
	rowToVID []uint32        // base row -> vid (NoVertex if none)
	keyIndex table.HashIndex // key cells of each vertex's base row -> vid; a view of Count() ids
	accepted int             // base rows that map to a vertex
	// tails lets a later version append to baseRow and rowToVID in place
	// (table.Grow); nil in a built type, whose arrays are exact.
	tails struct{ baseRow, rowToVID *table.Tail }
}

// RowPred filters base rows during view construction; nil accepts all rows.
type RowPred func(row uint32) (bool, error)

// BuildVertexType materialises a vertex type from its base table per
// Eq. 1. keyCols name the key attributes; where optionally filters base
// rows. Rows whose key contains a NULL produce no vertex. Vertices are
// numbered in the order their keys first appear in the table. A build is
// the patch of an empty type in which every row of base is new.
func BuildVertexType(id int, name string, base *table.Table, keyCols []int, where RowPred) (*VertexType, error) {
	empty := &VertexType{ID: id, Name: name, KeyCols: append([]int(nil), keyCols...)}
	vt, _, err := PatchVertexType(empty, base, Replaced(0, base.NumRows()), where)
	if err != nil {
		return nil, fmt.Errorf("graql: create vertex %s: %w", name, err)
	}
	return vt, nil
}

// Count returns the number of vertex instances.
func (vt *VertexType) Count() int { return len(vt.baseRow) }

// VIDForRow returns the vertex derived from a base-table row, or NoVertex.
func (vt *VertexType) VIDForRow(row uint32) VID { return vt.rowToVID[row] }

// LookupKeyValues returns the vertex with the given key values, one per
// key column and of the column's kind. The key index may be shared with
// later versions of the type; its view finds only vertices below Count().
func (vt *VertexType) LookupKeyValues(vals []value.Value) (VID, bool) {
	h, ok := table.HashValues(vals)
	if !ok || len(vals) != len(vt.KeyCols) {
		return 0, false
	}
	return vt.keyIndex.Find(h, func(v VID) bool { return vt.Base.EqualValues(vt.baseRow[v], vt.KeyCols, vals) })
}

// AttrIndex resolves an attribute name visible on this vertex type to its
// base-table column number. For a one-to-one type every base-table column
// is visible; for a many-to-one type only the key columns are.
func (vt *VertexType) AttrIndex(name string) (int, bool) {
	i := vt.Base.Schema().Index(name)
	if i < 0 || !vt.OneToOne && !slices.Contains(vt.KeyCols, i) {
		return -1, false
	}
	return i, true
}

// AttrCols lists the base-table columns visible as attributes, as
// AttrIndex resolves them: every column of a one-to-one type, the key
// columns of a many-to-one type.
func (vt *VertexType) AttrCols() []int {
	if !vt.OneToOne {
		return vt.KeyCols
	}
	cols := make([]int, len(vt.Base.Schema()))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// AttrName returns the name of the attribute previously resolved by
// AttrIndex.
func (vt *VertexType) AttrName(col int) string { return vt.Base.Schema()[col].Name }

// AttrType returns the type of the attribute previously resolved by
// AttrIndex.
func (vt *VertexType) AttrType(col int) value.Type { return vt.Base.Schema()[col].Type }

// AttrValue returns attribute col of vertex v, resolved per AttrIndex.
func (vt *VertexType) AttrValue(v VID, col int) value.Value { return vt.Base.Value(vt.baseRow[v], col) }

// AttrRows returns where the attributes AttrIndex resolves are stored: the
// base table, and for each vertex the row of it holding the vertex's
// attributes.
func (vt *VertexType) AttrRows() (*table.Table, []uint32) { return vt.Base, vt.baseRow }

// KeyString renders vertex v's key values for display, comma-separated.
func (vt *VertexType) KeyString(v VID) string {
	s := ""
	for i, c := range vt.KeyCols {
		if i > 0 {
			s += ","
		}
		s += vt.AttrValue(v, c).String()
	}
	return s
}

// Validate checks internal consistency (used by tests of view
// maintenance): the row and vertex mappings must agree with each other and
// with the key cells, representative rows must ascend with the vertex ids,
// and the key index must find every vertex and nothing else.
func (vt *VertexType) Validate() error {
	n := vt.Count()
	if len(vt.baseRow) != n || len(vt.rowToVID) != vt.Base.NumRows() || vt.keyIndex.Len() != n {
		return fmt.Errorf("graql: vertex %s: %d vertices, %d representative rows, %d indexed keys, %d of %d rows mapped",
			vt.Name, n, len(vt.baseRow), vt.keyIndex.Len(), len(vt.rowToVID), vt.Base.NumRows())
	}
	accepted := 0
	for r, v := range vt.rowToVID {
		if v == NoVertex {
			continue
		}
		accepted++
		if int(v) >= n || !vt.Base.EqualKey(uint32(r), vt.KeyCols, vt.Base, vt.baseRow[v], vt.KeyCols) {
			return fmt.Errorf("graql: vertex %s: row %d maps to vertex %d, which does not have its key", vt.Name, r, v)
		}
	}
	if accepted != vt.accepted || vt.OneToOne != (accepted == n) {
		return fmt.Errorf("graql: vertex %s: %d rows accepted, %d recorded, one-to-one %v", vt.Name, accepted, vt.accepted, vt.OneToOne)
	}
	for v := VID(0); v < VID(n); v++ {
		if vt.rowToVID[vt.baseRow[v]] != v {
			return fmt.Errorf("graql: vertex %s: vertex %d is not the vertex of its representative row", vt.Name, v)
		}
		// Vertices are numbered by first appearance, so an ascending set of
		// vertices reads ascending attribute rows (the matcher's step
		// filters run over such selections without sorting them).
		if v > 0 && vt.baseRow[v] <= vt.baseRow[v-1] {
			return fmt.Errorf("graql: vertex %s: representative rows do not ascend at vertex %d", vt.Name, v)
		}
		h, _ := vt.Base.HashKey(vt.baseRow[v], vt.KeyCols)
		u, ok := vt.keyIndex.Find(h, func(u VID) bool {
			return vt.Base.EqualKey(vt.baseRow[v], vt.KeyCols, vt.Base, vt.baseRow[u], vt.KeyCols)
		})
		if !ok || u != v {
			return fmt.Errorf("graql: vertex %s: key index resolves the key of vertex %d to %d (found %v)", vt.Name, v, u, ok)
		}
	}
	return nil
}
