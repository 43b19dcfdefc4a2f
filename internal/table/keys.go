package table

import (
	"cmp"
	"hash/maphash"
	"slices"

	"graql/internal/bitmap"
	"graql/internal/value"
)

// This file gives the view layer unboxed access to key cells: 64-bit
// hashes and equality of (row, columns) tuples read straight off the
// column slices, plus the matching functions over boxed values, so a
// vertex key index can hash a table row and be probed with a constant.
//
// Equality is the equality of Value.AppendKey encodings: kinds must match
// (an integer never equals a float or a date), the two float zeros are one
// key, and a NULL cell equals nothing — a tuple holding one has no key.

const hashInit = 0x9e3779b97f4a7c15

// mix folds the image of one cell into a running tuple hash.
func mix(h, cell uint64) uint64 {
	h = (h ^ cell) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// stringSeed seeds the hash of every string in the process — key cells
// and dictionary entries alike. No hash outlives the process.
var stringSeed = maphash.MakeSeed()

func stringImage(s string) uint64 { return maphash.String(stringSeed, s) }

// valueImage is the hash image of a non-NULL value; cellImage must agree
// with it for the same value stored in a column.
func valueImage(v value.Value) uint64 {
	switch v.K {
	case value.KindFloat:
		return value.FloatKey(v.F)
	case value.KindString:
		return stringImage(v.S)
	}
	return uint64(v.I)
}

func boolImage(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cellImage is the hash image of cell i of c and whether the cell is
// non-NULL.
func cellImage(c Column, i uint32) (uint64, bool) {
	switch c := c.(type) {
	case *intColumn:
		return uint64(c.data[i]), !c.nulls.Get(i)
	case *floatColumn:
		return value.FloatKey(c.data[i]), !c.nulls.Get(i)
	case *boolColumn:
		return boolImage(c.data[i]), !c.nulls.Get(i)
	case *stringColumn:
		if code := c.codes[i]; code != nullCode {
			return stringImage(c.dict.at(code)), true
		}
		return 0, false
	}
	v := c.Value(i)
	return valueImage(v), !v.IsNull()
}

// HashKey hashes the cells of row in cols; ok is false when one is NULL.
func (t *Table) HashKey(row uint32, cols []int) (h uint64, ok bool) {
	h = hashInit
	for _, c := range cols {
		img, ok := cellImage(t.cols[c], row)
		if !ok {
			return 0, false
		}
		h = mix(h, img)
	}
	return h, true
}

// HashValues is HashKey of a row holding vals.
func HashValues(vals []value.Value) (h uint64, ok bool) {
	h = hashInit
	for _, v := range vals {
		if v.IsNull() {
			return 0, false
		}
		h = mix(h, valueImage(v))
	}
	return h, true
}

// HashKeys is HashKey of each of rows, one column at a time: hashes[i]
// is that of rows[i], meaningful unless nulls has i.
func (t *Table) HashKeys(rows []uint32, cols []int) (hashes []uint64, nulls bitmap.Mask) {
	hashes = make([]uint64, len(rows))
	for i := range hashes {
		hashes[i] = hashInit
	}
	for _, c := range cols {
		switch c := t.cols[c].(type) {
		case *intColumn:
			for i, r := range rows {
				hashes[i] = mix(hashes[i], uint64(c.data[r]))
			}
			nulls = orMask(nulls, gatherNulls(c.nulls, rows))
		case *floatColumn:
			for i, r := range rows {
				hashes[i] = mix(hashes[i], value.FloatKey(c.data[r]))
			}
			nulls = orMask(nulls, gatherNulls(c.nulls, rows))
		case *boolColumn:
			for i, r := range rows {
				hashes[i] = mix(hashes[i], boolImage(c.data[r]))
			}
			nulls = orMask(nulls, gatherNulls(c.nulls, rows))
		case *stringColumn:
			for i, r := range rows {
				code := c.codes[r]
				if code == nullCode {
					nulls.Set(uint32(i))
					continue
				}
				hashes[i] = mix(hashes[i], stringImage(c.dict.at(code)))
			}
		default:
			for i, r := range rows {
				img, ok := cellImage(c, r)
				if !ok {
					nulls.Set(uint32(i))
				}
				hashes[i] = mix(hashes[i], img)
			}
		}
	}
	return hashes, nulls
}

func orMask(dst, src bitmap.Mask) bitmap.Mask {
	if len(src) > len(dst) {
		dst = append(dst, make(bitmap.Mask, len(src)-len(dst))...)
	}
	for w, bits := range src {
		dst[w] |= bits
	}
	return dst
}

// cellsEqual reports whether cell i of a and cell j of b hold the same
// non-NULL value of the same kind.
func cellsEqual(a Column, i uint32, b Column, j uint32) bool {
	switch a := a.(type) {
	case *intColumn:
		b, ok := b.(*intColumn)
		return ok && a.kind == b.kind && a.data[i] == b.data[j] && !a.nulls.Get(i) && !b.nulls.Get(j)
	case *floatColumn:
		b, ok := b.(*floatColumn)
		return ok && value.FloatKey(a.data[i]) == value.FloatKey(b.data[j]) && !a.nulls.Get(i) && !b.nulls.Get(j)
	case *boolColumn:
		b, ok := b.(*boolColumn)
		return ok && a.data[i] == b.data[j] && !a.nulls.Get(i) && !b.nulls.Get(j)
	case *stringColumn:
		b, ok := b.(*stringColumn)
		if !ok || a.codes[i] == nullCode || b.codes[j] == nullCode {
			return false
		}
		return a.dict.at(a.codes[i]) == b.dict.at(b.codes[j])
	}
	return cellEqualsValue(a, i, b.Value(j))
}

// cellEqualsValue reports whether cell i of c holds the non-NULL value v.
func cellEqualsValue(c Column, i uint32, v value.Value) bool {
	if v.IsNull() || v.K != c.Kind() || c.IsNull(i) {
		return false
	}
	switch c := c.(type) {
	case *intColumn:
		return c.data[i] == v.I
	case *floatColumn:
		return value.FloatKey(c.data[i]) == value.FloatKey(v.F)
	case *stringColumn:
		return c.dict.at(c.codes[i]) == v.S
	}
	return value.Equal(c.Value(i), v)
}

// EqualKey reports whether the cells of row in cols equal, one by one,
// the cells of row orow of o in ocols.
func (t *Table) EqualKey(row uint32, cols []int, o *Table, orow uint32, ocols []int) bool {
	for k, c := range cols {
		if !cellsEqual(t.cols[c], row, o.cols[ocols[k]], orow) {
			return false
		}
	}
	return true
}

// EqualValues reports whether the cells of row in cols equal vals.
func (t *Table) EqualValues(row uint32, cols []int, vals []value.Value) bool {
	for k, c := range cols {
		if !cellEqualsValue(t.cols[c], row, vals[k]) {
			return false
		}
	}
	return true
}

// MatchColumn finds the cells of column col that equal one of a few probe
// values, scanning the raw column once: emit(i, j) is called, in ascending
// i, for every cell i and probe j that hold the same non-NULL value of the
// same kind. The cells scanned are rows[i] for each i, or every row when
// rows is nil. It is the probe side of a join whose build side is small.
func (t *Table) MatchColumn(col int, rows []uint32, probes []value.Value, emit func(i uint32, j int) error) error {
	c := t.cols[col]
	// A probe's image orders and identifies it within this column: the
	// hash image of a number, the dictionary code of a string.
	image := valueImage
	if sc, ok := c.(*stringColumn); ok {
		image = func(v value.Value) uint64 {
			if code, ok := sc.codeOf(v.S); ok {
				return uint64(code)
			}
			return uint64(nullCode) // matches no cell
		}
	}
	type probe struct {
		image uint64
		j     int
	}
	var set []probe
	for j, v := range probes {
		if !v.IsNull() && v.K == c.Kind() {
			set = append(set, probe{image(v), j})
		}
	}
	if len(set) == 0 {
		return nil
	}
	slices.SortFunc(set, func(a, b probe) int { return cmp.Compare(a.image, b.image) })
	lo, hi := set[0].image, set[len(set)-1].image
	n := t.rows
	if rows != nil {
		n = len(rows)
	}
	for i := uint32(0); i < uint32(n); i++ {
		r := i
		if rows != nil {
			r = rows[i]
		}
		var img uint64
		switch c := c.(type) {
		case *intColumn:
			img = uint64(c.data[r])
		case *floatColumn:
			img = value.FloatKey(c.data[r])
		case *boolColumn:
			img = boolImage(c.data[r])
		case *stringColumn:
			img = uint64(c.codes[r]) // nullCode is no probe's image
		default:
			img, _ = cellImage(c, r)
		}
		if img < lo || img > hi || c.IsNull(r) {
			continue
		}
		k, _ := slices.BinarySearchFunc(set, img, func(p probe, img uint64) int { return cmp.Compare(p.image, img) })
		for ; k < len(set) && set[k].image == img; k++ {
			if err := emit(i, set[k].j); err != nil {
				return err
			}
		}
	}
	return nil
}
