package graph

import (
	"slices"

	"graql/internal/bitmap"
	"graql/internal/table"
)

// This file maintains vertex and edge types across a row-level write to a
// table they are views of, without rebuilding them: a view none of whose
// inputs changed is re-anchored by reference, and any other is patched —
// the instances derived from dead or rewritten rows are removed by
// integer remapping, the caller joins only the changed rows back in, and
// the indexes are re-frozen once. Nothing reachable from the old type is
// written, so readers of the published graph are never disturbed.

// Delta describes how one dense id space — the rows of a table, the
// vertices of a vertex type — moved from one version to the next. A
// delta that only adds ids lists just those: its size is the change's,
// not the space's.
type Delta struct {
	// Remap maps each old id to its new id, or to NoVertex when the
	// instance is gone; nil means no id moved and none is gone.
	Remap []uint32
	// Changed lists, ascending, the new ids of instances that are new or
	// have a rewritten attribute. An old id that maps onto one of them
	// stands for the instance as it was and is treated as gone.
	Changed []uint32
}

// appends reports whether d, over an old space of oldN ids, only adds
// ids past it: none moved, went or was rewritten. A nil Delta adds none.
func (d *Delta) appends(oldN int) bool {
	return d == nil || len(d.Remap) == 0 && (len(d.Changed) == 0 || int(d.Changed[0]) >= oldN)
}

// carry returns the map from each of the oldN old ids to the new id of
// the same, unchanged instance, or NoVertex; nil stands for the identity.
// newN is the size of the new id space. When no old id maps onto a
// changed one the map is Remap itself, uncopied: callers only read it.
func (d *Delta) carry(oldN, newN int) []uint32 {
	switch {
	case d.appends(oldN):
		return nil
	case d.Remap == nil:
		m := make([]uint32, oldN)
		for i := range m {
			m[i] = uint32(i)
		}
		for _, id := range d.Changed {
			if int(id) < oldN {
				m[id] = NoVertex
			}
		}
		return m
	case len(d.Changed) == 0:
		return d.Remap
	}
	m, copied := d.Remap, false
	changed := bitmap.FromSlice(newN, d.Changed)
	for i, id := range d.Remap {
		if id != NoVertex && changed.Get(id) {
			if !copied {
				m, copied = slices.Clone(d.Remap), true
			}
			m[i] = NoVertex
		}
	}
	return m
}

// Replaced is the Delta of an id space whose oldN ids are all gone and
// whose newN ids are all new: a table replaced whole, or built.
func Replaced(oldN, newN int) *Delta {
	d := &Delta{Remap: make([]uint32, oldN), Changed: make([]uint32, newN)}
	for i := range d.Remap {
		d.Remap[i] = NoVertex
	}
	for i := range d.Changed {
		d.Changed[i] = uint32(i)
	}
	return d
}

// grow is table.Grow of a view's id array; exact allocates the result at
// its length under no tail, as a build does.
func grow(s []uint32, tail *table.Tail, k int, exact bool) ([]uint32, *table.Tail) {
	if !exact {
		return table.Grow(s, tail, k)
	}
	out := make([]uint32, len(s)+k)
	copy(out, s)
	return out, nil
}

// ReanchorVertexType returns vt over newBase, a version of vt.Base in
// which no row was added, removed or moved and no key or filter cell was
// rewritten. Everything but Base is shared with vt.
func ReanchorVertexType(vt *VertexType, newBase *table.Table) *VertexType {
	out := *vt
	out.Base = newBase
	return &out
}

// PatchVertexType derives the vertex type over newBase, the version of
// vt.Base that d describes, evaluating where and hashing keys on the
// changed rows only. The result equals a build over newBase, vertex
// numbering included: a build is this patch of an empty type
// (BuildVertexType). The returned Delta tells edge maintenance how the
// VIDs moved; when either version is one-to-one its Changed also lists
// the vertices of rewritten rows. A write may flip the type between
// one-to-one and many-to-one, and with it the visible attributes: the
// caller re-resolves the declarations that read the type. An error is
// where's, unwrapped.
//
// A delta that only appends rows touches only those: their vertices
// follow the old ones, and rowToVID, baseRow and the key index grow in
// place where vt's end at their marks. Any other delta renumbers every
// row. Either way a build or a replacement, in which every row is new,
// allocates its arrays exactly, and any other write leaves headroom.
func PatchVertexType(vt *VertexType, newBase *table.Table, d *Delta, where RowPred) (*VertexType, *Delta, error) {
	out := &VertexType{ID: vt.ID, Name: vt.Name, Base: newBase, KeyCols: vt.KeyCols}
	exact := len(d.Changed) == newBase.NumRows()
	patch := out.renumber
	if d.appends(len(vt.rowToVID)) {
		patch = out.appendRows
	}
	vd, fresh, err := patch(vt, d, where, exact)
	if err != nil {
		return nil, nil, err
	}
	out.OneToOne = out.accepted == out.Count()
	if vt.OneToOne || out.OneToOne {
		// Every base column is an attribute of one version: a rewritten
		// row is a rewritten vertex.
		for _, r := range d.Changed {
			if v := out.rowToVID[r]; v != NoVertex {
				vd.Changed = append(vd.Changed, v)
			}
		}
		if !out.OneToOne { // several rewritten rows may share a vertex
			slices.Sort(vd.Changed)
			vd.Changed = slices.Compact(vd.Changed)
		}
	} else {
		vd.Changed = fresh
	}
	return out, vd, nil
}

// keyScan walks the changed rows of a patch: for each row that passes
// where and has a key, visit gets its position in rows and the key's
// hash. An error is where's.
func keyScan(base *table.Table, keyCols []int, rows []uint32, where RowPred, visit func(i int, h uint64)) error {
	hashes, nulls := base.HashKeys(rows, keyCols)
	for i, r := range rows {
		if where != nil {
			accept, err := where(r)
			if err != nil {
				return err
			}
			if !accept {
				continue
			}
		}
		if !nulls.Get(uint32(i)) {
			visit(i, hashes[i])
		}
	}
	return nil
}

// appendRows is PatchVertexType of a delta that only appends rows: it
// maps them, new vertices numbered from vt.Count() in order of first
// appearance, and returns the VID delta and the new vertices.
func (out *VertexType) appendRows(vt *VertexType, d *Delta, where RowPred, exact bool) (*Delta, []uint32, error) {
	newBase, keyCols, rows := out.Base, out.KeyCols, d.Changed
	oldCount := uint32(vt.Count())
	var firstRows []uint32 // the new vertices' representative rows
	rowOf := func(v VID) uint32 {
		if v < oldCount {
			return vt.baseRow[v]
		}
		return firstRows[v-oldCount]
	}
	hashOf := func(v VID) uint64 {
		h, _ := newBase.HashKey(rowOf(v), keyCols)
		return h
	}
	out.rowToVID, out.tails.rowToVID = grow(vt.rowToVID, vt.tails.rowToVID, len(rows), exact)
	for _, r := range rows {
		out.rowToVID[r] = NoVertex
	}
	out.keyIndex, out.accepted = vt.keyIndex, vt.accepted
	var r uint32
	same := func(v VID) bool { return newBase.EqualKey(r, keyCols, newBase, rowOf(v), keyCols) }
	err := keyScan(newBase, keyCols, rows, where, func(i int, h uint64) {
		r = rows[i]
		v, found := out.keyIndex.Find(h, same)
		if !found {
			v = oldCount + uint32(len(firstRows))
			firstRows = append(firstRows, r)
			out.keyIndex.Append(h, hashOf)
		}
		out.rowToVID[r] = v
		out.accepted++
	})
	if err != nil {
		return nil, nil, err
	}
	out.baseRow, out.tails.baseRow = grow(vt.baseRow, vt.tails.baseRow, len(firstRows), exact)
	copy(out.baseRow[oldCount:], firstRows)
	fresh := make([]uint32, len(firstRows))
	for k := range fresh {
		fresh[k] = oldCount + uint32(k)
	}
	return &Delta{}, fresh, nil
}

// renumber is PatchVertexType of any other delta: rows that survive
// untouched keep their vertex, a changed row joins the vertex that has
// its key or founds a new one, and every vertex is then numbered again
// in order of first appearance, as a build numbers them. It returns the
// VID delta and the new vertices' VIDs.
func (out *VertexType) renumber(vt *VertexType, d *Delta, where RowPred, exact bool) (*Delta, []uint32, error) {
	newBase, keyCols, oldCount := out.Base, out.KeyCols, uint32(vt.Count())

	// For now rowToVID holds old VIDs, and oldCount+k for new vertex k.
	rowToVID, tail := grow(nil, nil, newBase.NumRows(), exact)
	for i := range rowToVID {
		rowToVID[i] = NoVertex
	}
	if carry := d.carry(len(vt.rowToVID), len(rowToVID)); carry == nil {
		copy(rowToVID, vt.rowToVID)
	} else {
		for r, v := range vt.rowToVID {
			if nr := carry[r]; v != NoVertex && nr != NoVertex {
				rowToVID[nr] = v
			}
		}
	}

	// fresh indexes the new vertices by the key of their first changed
	// row, first[k] for new vertex k.
	var (
		r     uint32
		fresh table.HashIndex
		first []uint32
	)
	sameOld := func(v VID) bool { return newBase.EqualKey(r, keyCols, vt.Base, vt.baseRow[v], keyCols) }
	sameFresh := func(k uint32) bool { return newBase.EqualKey(r, keyCols, newBase, first[k], keyCols) }
	freshHash := func(k uint32) uint64 {
		h, _ := newBase.HashKey(first[k], keyCols)
		return h
	}
	err := keyScan(newBase, keyCols, d.Changed, where, func(i int, h uint64) {
		r = d.Changed[i]
		if v, found := vt.keyIndex.Find(h, sameOld); found {
			rowToVID[r] = v
		} else if k, found := fresh.Find(h, sameFresh); found {
			rowToVID[r] = oldCount + k
		} else {
			rowToVID[r] = oldCount + uint32(len(first))
			fresh.Append(h, freshHash)
			first = append(first, r)
		}
	})
	if err != nil {
		return nil, nil, err
	}

	// Renumber in order of first appearance, as a build from scratch
	// would: a vertex whose rows are all gone drops out here.
	vidMap := make([]uint32, int(oldCount)+len(first))
	for i := range vidMap {
		vidMap[i] = NoVertex
	}
	baseRow, _ := grow(nil, nil, len(vidMap), exact)
	baseRow = baseRow[:0]
	for r, v := range rowToVID {
		if v == NoVertex {
			continue
		}
		out.accepted++
		if vidMap[v] == NoVertex {
			vidMap[v] = uint32(len(baseRow))
			baseRow = append(baseRow, uint32(r))
		}
		rowToVID[r] = vidMap[v]
	}
	out.rowToVID, out.tails.rowToVID = rowToVID, tail
	out.baseRow = baseRow
	if !exact {
		out.tails.baseRow = table.NewTail(baseRow)
	}

	vd := &Delta{Remap: vidMap[:oldCount:oldCount]}
	stable := true
	for v, nv := range vd.Remap {
		if nv != uint32(v) {
			stable = false
			break
		}
	}
	hashOf := func(v VID) uint64 {
		h, _ := newBase.HashKey(out.baseRow[v], keyCols)
		return h
	}
	switch {
	case !stable:
		// The old index's ids are mapped, not its keys hashed again.
		out.keyIndex = vt.keyIndex.Renumber(vd.Remap, vidMap[oldCount:], out.Count(), hashOf)
	case oldCount == 0:
		// Every vertex is new and numbered as fresh numbered it: fresh
		// is the key index.
		vd.Remap, out.keyIndex = nil, fresh
	default:
		// No vertex moved or died: the index gains the new keys only.
		vd.Remap, out.keyIndex = nil, vt.keyIndex
		for k := range first {
			out.keyIndex.Append(freshHash(uint32(k)), hashOf)
		}
	}
	return vd, vidMap[oldCount:], nil
}

// ReanchorEdgeType returns et between src and dst, versions of its
// endpoint types in which no vertex moved, over an unchanged edge set;
// both indexes are shared with et. attrs is the current version of the
// associated table (nil when et carries no attributes), in which no row
// was added, removed or moved.
func ReanchorEdgeType(et *EdgeType, src, dst *VertexType, attrs *table.Table) *EdgeType {
	out := *et
	out.Src, out.Dst, out.attrs = src, dst, attrs
	return &out
}

// PatchEdgeType derives a new edge type between src and dst from et: an
// edge survives when its source vertex, its target vertex and its
// attribute row are all carried over by srcD, dstD and attrD (nil: that
// side did not change), its ids are remapped, and added — the edges the
// changed instances produce — follows the survivors, which keep their
// order. attrs is the current version of the associated table (nil when
// et carries no attributes). The survivors and the added edges are frozen
// as a build freezes its edges, in the same form as et's — except that a
// functional edge type whose endpoints only gained vertices, and whose
// added edges all leave new ones, appends them to its column in place.
func PatchEdgeType(et *EdgeType, src, dst *VertexType, srcD, dstD, attrD *Delta, added []Edge, attrs *table.Table) *EdgeType {
	carrySrc := srcD.carry(et.Src.Count(), src.Count())
	carryDst := carrySrc
	if dstD != srcD || et.Dst != et.Src {
		carryDst = dstD.carry(et.Dst.Count(), dst.Count())
	}
	var carryAttr []uint32
	if attrs != nil {
		carryAttr = attrD.carry(et.attrs.NumRows(), attrs.NumRows())
	}
	if et.Functional() && carrySrc == nil && carryDst == nil &&
		!slices.ContainsFunc(added, func(e Edge) bool { return int(e.Src) < et.Src.Count() }) {
		return appendColumn(et, src, dst, added)
	}
	return freeze(et, et.Functional(), src, dst, carrySrc, carryDst, carryAttr, added, attrs)
}

// appendColumn is PatchEdgeType of a functional edge type whose old
// edges all survive as they were and whose added edges all leave new
// source vertices: the column grows by the new sources' rows, in place
// where et's ends at its mark — exactly, as freeze would, when et has no
// edge yet (a build or an ingest). The reverse index is still transposed.
func appendColumn(et *EdgeType, src, dst *VertexType, added []Edge) *EdgeType {
	out := &EdgeType{ID: et.ID, Name: et.Name, Src: src, Dst: dst, hasRev: et.hasRev, count: et.count}
	old := et.Src.Count()
	out.fwd.nbr, out.fwdTail = grow(et.fwd.nbr, et.fwdTail, src.Count()-old, et.count == 0)
	col := out.fwd.nbr
	for v := old; v < len(col); v++ {
		col[v] = NoVertex
	}
	for _, e := range added {
		if col[e.Src] == NoVertex {
			out.count++
		}
		col[e.Src] = e.Dst // a later edge out of a source wins, as in freeze
	}
	if out.hasRev {
		out.rev = out.transpose()
	}
	return out
}
