package table

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"graql/internal/bitmap"
	"graql/internal/value"
)

// Column is a typed columnar vector. Implementations store values densely
// with a side null mask, giving cache-friendly scans for filters and
// joins.
type Column interface {
	// Kind returns the scalar kind stored in the column.
	Kind() value.Kind
	// Len returns the number of rows.
	Len() int
	// Value returns the value at row i.
	Value(i uint32) value.Value
	// IsNull reports whether row i is NULL, without boxing a Value.
	IsNull(i uint32) bool
	// Append appends v, which must match the column kind (or be NULL).
	Append(v value.Value) error
	// Gather returns a new column holding the rows named by idx, in order.
	Gather(idx []uint32) Column
	// Distinct returns the number of distinct values when cheaply known
	// (dictionary-encoded columns), else -1. The planner uses it as the
	// NDV statistic for equality selectivity (§III-B). It is exact for a
	// column filled by Append and an upper bound for a gathered or cloned
	// one, which keeps its source's dictionary.
	Distinct() int
}

// NewColumn returns an empty column of the given type.
func NewColumn(t value.Type) Column {
	switch t.Kind {
	case value.KindBool:
		return &boolColumn{}
	case value.KindInt:
		return &intColumn{kind: value.KindInt}
	case value.KindDate:
		return &intColumn{kind: value.KindDate}
	case value.KindFloat:
		return &floatColumn{}
	case value.KindString:
		return &stringColumn{width: t.Width}
	}
	panic(fmt.Sprintf("graql: NewColumn: invalid type %v", t))
}

// noRow in a gather index yields a NULL cell; no table holds that many
// rows. The group-by uses it for min/max over a group with no non-NULL
// input.
const noRow = ^uint32(0)

// gatherNulls is the null mask of src's rows idx (noRow entries included).
func gatherNulls(src bitmap.Mask, idx []uint32) bitmap.Mask {
	var out bitmap.Mask
	for j, i := range idx {
		if i == noRow || src.Get(i) {
			out.Set(uint32(j))
		}
	}
	return out
}

// gatherData copies src's rows idx; noRow entries read as the zero value.
func gatherData[T any](src []T, idx []uint32) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		if i != noRow {
			out[j] = src[i]
		}
	}
	return out
}

// cells is the storage of a fixed-width column: a slot per row and the
// NULL mask, with the tails through which write-built versions share
// their arrays (nil in a column built from scratch; see Grow).
type cells[T any] struct {
	data                []T
	nulls               bitmap.Mask
	dataTail, nullsTail *Tail
}

func (c *cells[T]) Len() int             { return len(c.data) }
func (c *cells[T]) IsNull(i uint32) bool { return c.nulls.Get(i) }

func (c *cells[T]) gather(idx []uint32) cells[T] {
	return cells[T]{data: gatherData(c.data, idx), nulls: gatherNulls(c.nulls, idx)}
}

// extended returns the cells of a version holding c's rows and then
// add's, appended in place where c's arrays end at their marks.
func (c *cells[T]) extended(add *cells[T]) cells[T] {
	n, out := len(c.data), cells[T]{}
	out.data, out.dataTail = Grow(c.data, c.dataTail, len(add.data))
	copy(out.data[n:], add.data)
	out.nulls, out.nullsTail = extendNulls(c.nulls, c.nullsTail, n, add.nulls)
	return out
}

// sliced returns the cells of rows [lo, hi), sharing c's data array.
func (c *cells[T]) sliced(lo, hi int) cells[T] {
	out := cells[T]{data: c.data[lo:hi], dataTail: c.dataTail}
	out.nulls, out.nullsTail = sliceNulls(c.nulls, lo, hi)
	return out
}

// kept returns c's rows idx in arrays with headroom.
func (c *cells[T]) kept(idx []uint32) cells[T] {
	var out cells[T]
	out.data, out.dataTail = Grow([]T(nil), nil, len(idx))
	for j, i := range idx {
		out.data[j] = c.data[i]
	}
	if nulls := gatherNulls(c.nulls, idx); len(nulls) > 0 {
		out.nulls, out.nullsTail = withRoom(nulls)
	}
	return out
}

// copied returns a copy of c with headroom, for a version to rewrite.
func (c *cells[T]) copied() cells[T] {
	var out cells[T]
	out.data, out.dataTail = withRoom(c.data)
	if len(c.nulls) > 0 {
		out.nulls, out.nullsTail = withRoom(c.nulls)
	}
	return out
}

func (c *cells[T]) fit() { c.data, c.nulls = exact(c.data), exact(c.nulls) }

// exact returns s in an array of exactly its length.
func exact[S ~[]T, T any](s S) S {
	if len(s) == cap(s) {
		return s
	}
	out := make(S, len(s))
	copy(out, s)
	return out
}

// extendNulls returns the NULL mask of a version whose rows from n on are
// those add marks: nulls itself when add marks none. A word below
// len(nulls) holds bits of published rows, so setting a bit in it copies
// the mask; words past it are appended under tail.
func extendNulls(nulls bitmap.Mask, tail *Tail, n int, add bitmap.Mask) (bitmap.Mask, *Tail) {
	last := len(add) - 1
	for last >= 0 && add[last] == 0 {
		last--
	}
	if last < 0 {
		return nulls, tail
	}
	words := (n+64*last+63-bits.LeadingZeros64(add[last]))/64 + 1
	var out bitmap.Mask
	if len(nulls) > n/64 {
		out, tail = Grow(bitmap.Mask(nil), nil, words)
		copy(out, nulls)
	} else {
		out, tail = Grow(nulls, tail, words-len(nulls))
		clear(out[len(nulls):])
	}
	for w, word := range add[:last+1] {
		for ; word != 0; word &= word - 1 {
			out.Set(uint32(n + 64*w + bits.TrailingZeros64(word)))
		}
	}
	return out, tail
}

// sliceNulls returns the NULL mask of rows [lo, hi) of nulls, renumbered
// from 0: a copy with headroom, or nil when none of them is NULL.
func sliceNulls(nulls bitmap.Mask, lo, hi int) (bitmap.Mask, *Tail) {
	var out bitmap.Mask
	for r := lo; r < hi && r/64 < len(nulls); r++ {
		if nulls.Get(uint32(r)) {
			if out == nil {
				out = make(bitmap.Mask, 0, ((hi-lo)/64+1)*9/8)
			}
			out.Set(uint32(r - lo))
		}
	}
	if out == nil {
		return nil, nil
	}
	return out, NewTail(out)
}

// intColumn stores integers and dates (days since epoch).
type intColumn struct {
	cells[int64]
	kind value.Kind
}

func (c *intColumn) Kind() value.Kind { return c.kind }

func (c *intColumn) Value(i uint32) value.Value {
	if c.nulls.Get(i) {
		return value.NewNull(c.kind)
	}
	if c.kind == value.KindDate {
		return value.NewDate(c.data[i])
	}
	return value.NewInt(c.data[i])
}

func (c *intColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.nulls.Set(uint32(len(c.data)))
		c.data = append(c.data, 0)
		return nil
	}
	if v.Kind() != c.kind {
		return &value.TypeError{Op: "store", A: c.kind, B: v.Kind()}
	}
	c.data = append(c.data, v.Int())
	return nil
}

func (c *intColumn) Gather(idx []uint32) Column { return &intColumn{c.gather(idx), c.kind} }

func (c *intColumn) Distinct() int { return -1 }

type floatColumn struct{ cells[float64] }

func (c *floatColumn) Kind() value.Kind { return value.KindFloat }

func (c *floatColumn) Value(i uint32) value.Value {
	if c.nulls.Get(i) {
		return value.NewNull(value.KindFloat)
	}
	return value.NewFloat(c.data[i])
}

func (c *floatColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.nulls.Set(uint32(len(c.data)))
		c.data = append(c.data, 0)
		return nil
	}
	if !v.Kind().Numeric() {
		return &value.TypeError{Op: "store", A: value.KindFloat, B: v.Kind()}
	}
	c.data = append(c.data, v.Float())
	return nil
}

func (c *floatColumn) Gather(idx []uint32) Column { return &floatColumn{c.gather(idx)} }

func (c *floatColumn) Distinct() int { return -1 }

type boolColumn struct{ cells[bool] }

func (c *boolColumn) Kind() value.Kind { return value.KindBool }

func (c *boolColumn) Value(i uint32) value.Value {
	if c.nulls.Get(i) {
		return value.NewNull(value.KindBool)
	}
	return value.NewBool(c.data[i])
}

func (c *boolColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.nulls.Set(uint32(len(c.data)))
		c.data = append(c.data, false)
		return nil
	}
	if v.Kind() != value.KindBool {
		return &value.TypeError{Op: "store", A: value.KindBool, B: v.Kind()}
	}
	c.data = append(c.data, v.Bool())
	return nil
}

func (c *boolColumn) Gather(idx []uint32) Column { return &boolColumn{c.gather(idx)} }

func (c *boolColumn) Distinct() int { return 2 }

// stringColumn stores varchar data with dictionary encoding: each distinct
// string is stored once, in dict in order of first appearance, and rows
// hold its 32-bit code. Attribute data such as country codes and product
// types in the Berlin schema is highly repetitive, so this both saves
// memory and turns equality filters, group-by and distinct into integer
// work on the codes.
//
// The string→code index is a HashIndex of codes, probed by the string's
// hash and resolved by comparing dict.at(code). Gather, a write's new
// version and every copy share the dictionary and its index's table, and
// each holds a view of both that ends at its own length. The index's
// high-water mark governs the dictionary's two arrays as well: a column
// appends a string in place only while its view holds every code the
// table has, and otherwise copies both (HashIndex.Append).
type stringColumn struct {
	codes     []uint32
	codesTail *Tail
	dict      dictionary
	index     *dictIndex // nil while dict is empty; else index.Len() == dict.len()
	width     int
}

// A dictionary holds its entries back to back in one byte array, entry k
// ending where entry k+1 starts, at ends[k]: 4 B per entry besides the
// bytes, and no pointer for the collector to mark. Every string added is
// copied in, so an entry never pins the buffer it came from (a CSV record
// line). Bytes below a version's length are never written again, so an
// entry read as a string over them (at) stays valid as long as anything
// holds it, and keeps the whole array alive meanwhile.
type dictionary struct {
	bytes []byte
	ends  []uint32
}

func (d *dictionary) len() int { return len(d.ends) }

// at returns entry k.
func (d *dictionary) at(k uint32) string {
	lo := uint32(0)
	if k > 0 {
		lo = d.ends[k-1]
	}
	b := d.bytes[lo:d.ends[k]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// add appends a copy of s as entry len(), in the arrays' spare capacity
// only when owned says that no other version has added past them.
func (d *dictionary) add(s string, owned bool) {
	if !owned {
		d.bytes, d.ends = slices.Clip(d.bytes), slices.Clip(d.ends)
	}
	d.bytes = append(d.bytes, s...)
	d.ends = append(d.ends, uint32(len(d.bytes)))
}

func (c *stringColumn) fit() {
	c.codes, c.dict.bytes, c.dict.ends = exact(c.codes), exact(c.dict.bytes), exact(c.dict.ends)
}

// dictIndex is a column's view of its dictionary's index.
type dictIndex struct {
	HashIndex
	shared atomic.Bool // a second column holds this view: neither changes it again
}

const nullCode = ^uint32(0)

func (c *stringColumn) Kind() value.Kind     { return value.KindString }
func (c *stringColumn) Len() int             { return len(c.codes) }
func (c *stringColumn) IsNull(i uint32) bool { return c.codes[i] == nullCode }

func (c *stringColumn) Value(i uint32) value.Value {
	code := c.codes[i]
	if code == nullCode {
		return value.NewNull(value.KindString)
	}
	return value.NewString(c.dict.at(code))
}

func (c *stringColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.codes = append(c.codes, nullCode)
		return nil
	}
	if v.Kind() != value.KindString {
		return &value.TypeError{Op: "store", A: value.KindString, B: v.Kind()}
	}
	code, err := c.intern(v.Str())
	if err != nil {
		return err
	}
	c.codes = append(c.codes, code)
	return nil
}

// intern returns the dictionary code of s, adding a copy of s to the
// dictionary when it is new.
func (c *stringColumn) intern(s string) (uint32, error) {
	if c.width > 0 && len(s) > c.width {
		return 0, fmt.Errorf("graql: value %q exceeds varchar(%d)", s, c.width)
	}
	if code, ok := c.codeOf(s); ok {
		return code, nil
	}
	if uint64(len(c.dict.bytes))+uint64(len(s)) > math.MaxUint32 {
		return 0, fmt.Errorf("graql: a varchar dictionary holds at most 4 GiB")
	}
	switch {
	case c.index == nil:
		c.index = new(dictIndex)
	case c.index.shared.Load():
		c.index = &dictIndex{HashIndex: c.index.HashIndex}
	}
	// Only the view that holds every code may write past this column's
	// arrays: another column's entries may lie there.
	owned := c.index.Append(stringImage(s), func(code uint32) uint64 { return stringImage(c.dict.at(code)) })
	code := uint32(c.dict.len())
	c.dict.add(s, owned)
	return code, nil
}

// codeOf returns the dictionary code of s. It only reads, so concurrent
// scans of a published column may call it. The index's table may hold
// codes that later versions added; the view rejects any code at or past
// this column's dictionary length.
func (c *stringColumn) codeOf(s string) (uint32, bool) {
	if c.index == nil {
		return 0, false
	}
	return c.index.Find(stringImage(s), func(code uint32) bool { return c.dict.at(code) == s })
}

// share returns a column without rows over c's dictionary and index
// view, and marks the view shared: the first of the two columns to add
// a string takes a view of its own.
func (c *stringColumn) share() *stringColumn {
	if c.index != nil && !c.index.shared.Load() {
		c.index.shared.Store(true)
	}
	return &stringColumn{dict: c.dict, index: c.index, width: c.width}
}

func (c *stringColumn) Gather(idx []uint32) Column {
	out := c.share()
	out.codes = make([]uint32, len(idx))
	for j, i := range idx {
		out.codes[j] = nullCode
		if i != noRow {
			out.codes[j] = c.codes[i]
		}
	}
	return out
}

func (c *stringColumn) Distinct() int { return c.dict.len() }

// setCell overwrites cell i of c, a column no reader can see yet, with v.
func setCell(c Column, i uint32, v value.Value) error {
	if !v.IsNull() && v.Kind() != c.Kind() {
		return &value.TypeError{Op: "store", A: c.Kind(), B: v.Kind()}
	}
	switch c := c.(type) {
	case *intColumn:
		c.data[i] = v.Int()
		c.nulls.Put(i, v.IsNull())
	case *floatColumn:
		c.data[i] = v.Float()
		c.nulls.Put(i, v.IsNull())
	case *boolColumn:
		c.data[i] = v.Bool()
		c.nulls.Put(i, v.IsNull())
	case *stringColumn:
		c.codes[i] = nullCode
		if !v.IsNull() {
			code, err := c.intern(v.Str())
			if err != nil {
				return err
			}
			c.codes[i] = code
		}
	default:
		return fmt.Errorf("graql: column of kind %s cannot be rewritten in place", c.Kind())
	}
	return nil
}

// extendColumn returns the version of c followed by the cells of add, a
// column of c's kind built from scratch (Table.Extend).
func extendColumn(c, add Column) (Column, error) {
	switch c := c.(type) {
	case *intColumn:
		return &intColumn{c.extended(&add.(*intColumn).cells), c.kind}, nil
	case *floatColumn:
		return &floatColumn{c.extended(&add.(*floatColumn).cells)}, nil
	case *boolColumn:
		return &boolColumn{c.extended(&add.(*boolColumn).cells)}, nil
	case *stringColumn:
		add := add.(*stringColumn)
		out, code := c.share(), make([]uint32, add.dict.len())
		for k := range code {
			var err error
			if code[k], err = out.intern(add.dict.at(uint32(k))); err != nil {
				return nil, err
			}
		}
		n := len(c.codes)
		out.codes, out.codesTail = Grow(c.codes, c.codesTail, len(add.codes))
		for j, k := range add.codes {
			if k != nullCode {
				k = code[k]
			}
			out.codes[n+j] = k
		}
		return out, nil
	}
	return nil, fmt.Errorf("graql: column of kind %s cannot be extended", c.Kind())
}

// sliceColumn returns rows [lo, hi) of c, sharing its arrays.
func sliceColumn(c Column, lo, hi int) Column {
	switch c := c.(type) {
	case *intColumn:
		return &intColumn{c.sliced(lo, hi), c.kind}
	case *floatColumn:
		return &floatColumn{c.sliced(lo, hi)}
	case *boolColumn:
		return &boolColumn{c.sliced(lo, hi)}
	case *stringColumn:
		out := c.share()
		out.codes, out.codesTail = c.codes[lo:hi], c.codesTail
		return out
	}
	return c.Gather(rowRange(lo, hi))
}

// keepColumn returns c's rows idx in arrays with headroom.
func keepColumn(c Column, idx []uint32) Column {
	switch c := c.(type) {
	case *intColumn:
		return &intColumn{c.kept(idx), c.kind}
	case *floatColumn:
		return &floatColumn{c.kept(idx)}
	case *boolColumn:
		return &boolColumn{c.kept(idx)}
	case *stringColumn:
		out := c.share()
		out.codes, out.codesTail = Grow([]uint32(nil), nil, len(idx))
		for j, i := range idx {
			out.codes[j] = c.codes[i]
		}
		return out
	}
	return c.Gather(idx)
}

// copyColumn returns a copy of c with headroom that shares nothing
// mutable with it, for a new version to rewrite.
func copyColumn(c Column) Column {
	switch c := c.(type) {
	case *intColumn:
		return &intColumn{c.copied(), c.kind}
	case *floatColumn:
		return &floatColumn{c.copied()}
	case *boolColumn:
		return &boolColumn{c.copied()}
	case *stringColumn:
		out := c.share()
		out.codes, out.codesTail = withRoom(c.codes)
		return out
	}
	return c.Gather(rowRange(0, c.Len()))
}

// rowRange returns the rows lo … hi-1.
func rowRange(lo, hi int) []uint32 {
	idx := make([]uint32, hi-lo)
	for i := range idx {
		idx[i] = uint32(lo + i)
	}
	return idx
}
