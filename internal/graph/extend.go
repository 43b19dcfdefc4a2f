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
// vertices of a vertex type — moved from one version to the next.
type Delta struct {
	// Remap maps each old id to its new id, or to NoVertex when the
	// instance is gone; nil means no id moved and none is gone.
	Remap []uint32
	// Changed lists, ascending, the new ids of instances that are new or
	// have a rewritten attribute. An old id that maps onto one of them
	// stands for the instance as it was and is treated as gone.
	Changed []uint32
}

// carry returns the map from an old id to the new id of the same,
// unchanged instance, or NoVertex; nil stands for the identity. newN is
// the size of the new id space.
func (d *Delta) carry(newN int) []uint32 {
	if d == nil || d.Remap == nil && len(d.Changed) == 0 {
		return nil
	}
	if d.Remap == nil {
		m := make([]uint32, newN)
		for i := range m {
			m[i] = uint32(i)
		}
		for _, id := range d.Changed {
			m[id] = NoVertex
		}
		return m
	}
	m := append([]uint32(nil), d.Remap...)
	changed := bitmap.FromSlice(newN, d.Changed)
	for i, id := range m {
		if id != NoVertex && changed.Get(id) {
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
func PatchVertexType(vt *VertexType, newBase *table.Table, d *Delta, where RowPred) (*VertexType, *Delta, error) {
	keyCols, oldCount := vt.KeyCols, uint32(vt.Count())
	out := &VertexType{ID: vt.ID, Name: vt.Name, Base: newBase, KeyCols: keyCols}

	// Rows that survive untouched keep their vertex; for now rowToVID
	// holds old VIDs.
	rowToVID := make([]uint32, newBase.NumRows())
	for i := range rowToVID {
		rowToVID[i] = NoVertex
	}
	if carry := d.carry(len(rowToVID)); carry == nil {
		copy(rowToVID, vt.rowToVID)
	} else {
		for r, v := range vt.rowToVID {
			if nr := carry[r]; v != NoVertex && nr != NoVertex {
				rowToVID[nr] = v
			}
		}
	}

	// A changed row joins the vertex that has its key, or founds a fresh
	// one, numbered from oldCount in order of first appearance. fresh
	// indexes the fresh vertices by the hash of their first changed row.
	hashes, nulls := newBase.HashKeys(d.Changed, keyCols)
	var (
		i     int
		fresh table.HashIndex
		first []int // fresh vertex -> position of its first row in d.Changed
	)
	sameOld := func(v VID) bool { return newBase.EqualKey(d.Changed[i], keyCols, vt.Base, vt.baseRow[v], keyCols) }
	sameFresh := func(k uint32) bool {
		return newBase.EqualKey(d.Changed[i], keyCols, newBase, d.Changed[first[k]], keyCols)
	}
	freshHash := func(k uint32) uint64 { return hashes[first[k]] }
	for i = range d.Changed {
		r := d.Changed[i]
		if where != nil {
			accept, err := where(r)
			if err != nil {
				return nil, nil, err
			}
			if !accept {
				continue
			}
		}
		if nulls.Get(uint32(i)) {
			continue
		}
		if v, found := vt.keyIndex.Find(hashes[i], sameOld); found {
			rowToVID[r] = v
		} else if k, found := fresh.Find(hashes[i], sameFresh); found {
			rowToVID[r] = oldCount + k
		} else {
			rowToVID[r] = oldCount + uint32(len(first))
			fresh.Add(hashes[i], uint32(len(first)), freshHash)
			first = append(first, i)
		}
	}

	// Renumber in order of first appearance, as a build from scratch
	// would: a vertex whose rows are all gone drops out here.
	vidMap := make([]uint32, int(oldCount)+len(first))
	for i := range vidMap {
		vidMap[i] = NoVertex
	}
	out.baseRow = make([]uint32, 0, len(vidMap))
	for r, v := range rowToVID {
		if v == NoVertex {
			continue
		}
		out.accepted++
		if vidMap[v] == NoVertex {
			vidMap[v] = uint32(len(out.baseRow))
			out.baseRow = append(out.baseRow, uint32(r))
		}
		rowToVID[r] = vidMap[v]
	}
	out.rowToVID = rowToVID
	out.OneToOne = out.accepted == len(out.baseRow)

	vd := &Delta{Remap: vidMap[:oldCount:oldCount]}
	stable := true
	for v, nv := range vd.Remap {
		if nv != uint32(v) {
			stable = false
			break
		}
	}
	switch {
	case !stable:
		// One typed hash pass over the vertices' rows places every vertex.
		vertexHashes, _ := newBase.HashKeys(out.baseRow, keyCols)
		out.keyIndex = table.NewHashIndex(out.Count())
		for v, h := range vertexHashes {
			out.keyIndex.Add(h, VID(v), nil)
		}
	case oldCount == 0:
		// Every vertex is fresh and numbered as fresh numbered it: fresh
		// is the key index.
		vd.Remap, out.keyIndex = nil, fresh
	default:
		// No vertex moved or died: the index gains the fresh keys only.
		vd.Remap = nil
		out.keyIndex = vt.keyIndex.Clone()
		hashOf := func(v VID) uint64 {
			h, _ := newBase.HashKey(out.baseRow[v], keyCols)
			return h
		}
		for k, pos := range first {
			out.keyIndex.Add(hashes[pos], oldCount+VID(k), hashOf)
		}
	}

	if vt.OneToOne || out.OneToOne {
		// Every base column is an attribute of one version: a rewritten
		// row is a rewritten vertex.
		for _, r := range d.Changed {
			if v := rowToVID[r]; v != NoVertex {
				vd.Changed = append(vd.Changed, v)
			}
		}
		if !out.OneToOne { // several rewritten rows may share a vertex
			slices.Sort(vd.Changed)
			vd.Changed = slices.Compact(vd.Changed)
		}
	} else {
		vd.Changed = vidMap[oldCount:]
	}
	return out, vd, nil
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
// as a build freezes its edges, in the same form as et's.
func PatchEdgeType(et *EdgeType, src, dst *VertexType, srcD, dstD, attrD *Delta, added []Edge, attrs *table.Table) *EdgeType {
	carrySrc := srcD.carry(src.Count())
	carryDst := carrySrc
	if dstD != srcD || et.Dst != et.Src {
		carryDst = dstD.carry(dst.Count())
	}
	var carryAttr []uint32
	if attrs != nil {
		carryAttr = attrD.carry(attrs.NumRows())
	}
	return freeze(et, et.Functional(), src, dst, carrySrc, carryDst, carryAttr, added, attrs)
}
