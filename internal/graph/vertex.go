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
// attributes (paper §II-A, Figs. 4–5).
type VertexType struct {
	ID   int
	Name string
	Base *table.Table
	// KeyCols are the base-table column indexes forming the vertex key.
	KeyCols []int
	// OneToOne reports whether each vertex corresponds to exactly one
	// base row.
	OneToOne bool

	// Keys holds one row per vertex instance with the key column values;
	// row ids coincide with VIDs.
	Keys *table.Table

	baseRow  []uint32        // vid -> representative (first) base row
	rowToVID []uint32        // base row -> vid (NoVertex if none)
	keyIndex table.HashIndex // key cells of Keys -> vid
	keyIdent []int           // 0..len(KeyCols)-1: the key columns as Keys numbers them
	accepted int             // base rows that map to a vertex
}

// RowPred filters base rows during view construction; nil accepts all rows.
type RowPred func(row uint32) (bool, error)

// BuildVertexType materialises a vertex type from its base table per
// Eq. 1. keyCols name the key attributes; where optionally filters base
// rows. Rows whose key contains a NULL produce no vertex. Vertices are
// numbered in the order their keys first appear in the table.
func BuildVertexType(id int, name string, base *table.Table, keyCols []int, where RowPred) (*VertexType, error) {
	vt := &VertexType{
		ID:       id,
		Name:     name,
		KeyCols:  append([]int(nil), keyCols...),
		rowToVID: make([]uint32, base.NumRows()),
	}
	hashes, nulls := base.HashKeys(keyCols)
	hashOf := func(v VID) uint64 { return hashes[vt.baseRow[v]] }
	var r uint32
	same := func(v VID) bool { return base.EqualKey(r, keyCols, base, vt.baseRow[v], keyCols) }
	for r = 0; r < uint32(base.NumRows()); r++ {
		vt.rowToVID[r] = NoVertex
		if where != nil {
			ok, err := where(r)
			if err != nil {
				return nil, fmt.Errorf("graql: create vertex %s: %w", name, err)
			}
			if !ok {
				continue
			}
		}
		if nulls.Get(r) {
			continue
		}
		vt.accepted++
		vid, ok := vt.keyIndex.Find(hashes[r], same)
		if !ok {
			vid = uint32(len(vt.baseRow))
			vt.baseRow = append(vt.baseRow, r)
			vt.keyIndex.Add(hashes[r], vid, hashOf)
		}
		vt.rowToVID[r] = vid
	}
	vt.seal(base)
	return vt, nil
}

// seal derives what follows from baseRow and accepted once they are
// final: the Keys table, gathered column-wise from base, and the mapping
// kind.
func (vt *VertexType) seal(base *table.Table) {
	vt.Base = base
	vt.Keys = base.GatherCols(vt.Name, vt.KeyCols, vt.baseRow)
	vt.OneToOne = vt.accepted == len(vt.baseRow)
	vt.keyIdent = make([]int, len(vt.KeyCols))
	for i := range vt.keyIdent {
		vt.keyIdent[i] = i
	}
}

// Count returns the number of vertex instances.
func (vt *VertexType) Count() int { return vt.Keys.NumRows() }

// VIDForRow returns the vertex derived from a base-table row, or NoVertex.
func (vt *VertexType) VIDForRow(row uint32) VID { return vt.rowToVID[row] }

// LookupKeyValues returns the vertex with the given key values, one per
// key column and of the column's kind.
func (vt *VertexType) LookupKeyValues(vals []value.Value) (VID, bool) {
	h, ok := table.HashValues(vals)
	if !ok || len(vals) != len(vt.KeyCols) {
		return 0, false
	}
	return vt.keyIndex.Find(h, func(v VID) bool { return vt.Keys.EqualValues(v, vt.keyIdent, vals) })
}

// AttrIndex resolves an attribute name visible on this vertex type. For a
// one-to-one type every base-table column is visible; for a many-to-one
// type only the key columns are. The returned index addresses either the
// base table (one-to-one) or the Keys table.
func (vt *VertexType) AttrIndex(name string) (int, bool) {
	if vt.OneToOne {
		i := vt.Base.Schema().Index(name)
		return i, i >= 0
	}
	i := vt.Keys.Schema().Index(name)
	return i, i >= 0
}

// AttrType returns the type of the attribute previously resolved by
// AttrIndex.
func (vt *VertexType) AttrType(col int) value.Type {
	if vt.OneToOne {
		return vt.Base.Schema()[col].Type
	}
	return vt.Keys.Schema()[col].Type
}

// AttrValue returns attribute col of vertex v, resolved per AttrIndex.
func (vt *VertexType) AttrValue(v VID, col int) value.Value {
	if vt.OneToOne {
		return vt.Base.Value(vt.baseRow[v], col)
	}
	return vt.Keys.Value(v, col)
}

// AttrRows returns where the attributes AttrIndex resolves are stored: a
// table, and for each vertex the row of it holding the vertex's attributes
// (nil when vertex v's row is v).
func (vt *VertexType) AttrRows() (*table.Table, []uint32) {
	if vt.OneToOne {
		return vt.Base, vt.baseRow
	}
	return vt.Keys, nil
}

// AttrSchema returns the full attribute schema visible on this vertex type
// (all base columns for one-to-one, key columns for many-to-one).
func (vt *VertexType) AttrSchema() table.Schema {
	if vt.OneToOne {
		return vt.Base.Schema()
	}
	return vt.Keys.Schema()
}

// KeyString renders vertex v's key values for display, comma-separated.
func (vt *VertexType) KeyString(v VID) string {
	s := ""
	for c := 0; c < vt.Keys.NumCols(); c++ {
		if c > 0 {
			s += ","
		}
		s += vt.Keys.Value(v, c).String()
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
		if int(v) >= n || !vt.Base.EqualKey(uint32(r), vt.KeyCols, vt.Keys, v, vt.keyIdent) {
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
		h, _ := vt.Keys.HashKey(v, vt.keyIdent)
		u, ok := vt.keyIndex.Find(h, func(u VID) bool { return vt.Keys.EqualKey(v, vt.keyIdent, vt.Keys, u, vt.keyIdent) })
		if !ok || u != v {
			return fmt.Errorf("graql: vertex %s: key index resolves the key of vertex %d to %d (found %v)", vt.Name, v, u, ok)
		}
	}
	return nil
}
