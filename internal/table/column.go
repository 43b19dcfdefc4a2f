package table

import (
	"fmt"
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

// intColumn stores integers and dates (days since epoch).
type intColumn struct {
	data  []int64
	nulls bitmap.Mask
	kind  value.Kind
}

func (c *intColumn) Kind() value.Kind     { return c.kind }
func (c *intColumn) Len() int             { return len(c.data) }
func (c *intColumn) IsNull(i uint32) bool { return c.nulls.Get(i) }

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

func (c *intColumn) Gather(idx []uint32) Column {
	return &intColumn{data: gatherData(c.data, idx), nulls: gatherNulls(c.nulls, idx), kind: c.kind}
}

func (c *intColumn) Distinct() int { return -1 }

type floatColumn struct {
	data  []float64
	nulls bitmap.Mask
}

func (c *floatColumn) Kind() value.Kind     { return value.KindFloat }
func (c *floatColumn) Len() int             { return len(c.data) }
func (c *floatColumn) IsNull(i uint32) bool { return c.nulls.Get(i) }

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

func (c *floatColumn) Gather(idx []uint32) Column {
	return &floatColumn{data: gatherData(c.data, idx), nulls: gatherNulls(c.nulls, idx)}
}

func (c *floatColumn) Distinct() int { return -1 }

type boolColumn struct {
	data  []bool
	nulls bitmap.Mask
}

func (c *boolColumn) Kind() value.Kind     { return value.KindBool }
func (c *boolColumn) Len() int             { return len(c.data) }
func (c *boolColumn) IsNull(i uint32) bool { return c.nulls.Get(i) }

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

func (c *boolColumn) Gather(idx []uint32) Column {
	return &boolColumn{data: gatherData(c.data, idx), nulls: gatherNulls(c.nulls, idx)}
}

func (c *boolColumn) Distinct() int { return 2 }

// stringColumn stores varchar data with dictionary encoding: each distinct
// string is stored once, in dict in order of first appearance, and rows
// hold its 32-bit code. Attribute data such as country codes and product
// types in the Berlin schema is highly repetitive, so this both saves
// memory and turns equality filters, group-by and distinct into integer
// work on the codes.
//
// The string→code index is a HashIndex of codes, probed by the string's
// hash and resolved by comparing dict[code]. Gather and clone copy the
// codes and share the dictionary and its index: dict is capped at its
// length, so appending a new string copies it rather than write into the
// source's array, and an index once shared is never written again — the
// first column to add a string copies it. Ingest copies the strings it
// adds, so the dictionary never pins the record line they were cut from.
type stringColumn struct {
	codes []uint32
	dict  []string
	index *dictIndex // nil while dict is empty; else index.Len() == len(dict)
	width int
}

type dictIndex struct {
	HashIndex
	shared atomic.Bool // a second column reads it: nothing writes it again
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
	return value.NewString(c.dict[code])
}

func (c *stringColumn) Append(v value.Value) error { return c.append(v, nil) }

// append is Append. A non-nil arena says that v's string is cut from a
// buffer the caller does not keep, so a new one is copied into the arena.
func (c *stringColumn) append(v value.Value, arena *arena) error {
	if v.IsNull() {
		c.codes = append(c.codes, nullCode)
		return nil
	}
	if v.Kind() != value.KindString {
		return &value.TypeError{Op: "store", A: value.KindString, B: v.Kind()}
	}
	code, err := c.intern(v.Str(), arena)
	if err != nil {
		return err
	}
	c.codes = append(c.codes, code)
	return nil
}

// intern returns the dictionary code of s, adding s — or, with an arena, a
// copy of it there — to the dictionary when it is new.
func (c *stringColumn) intern(s string, arena *arena) (uint32, error) {
	if c.width > 0 && len(s) > c.width {
		return 0, fmt.Errorf("graql: value %q exceeds varchar(%d)", s, c.width)
	}
	if code, ok := c.codeOf(s); ok {
		return code, nil
	}
	switch {
	case c.index == nil:
		c.index = new(dictIndex)
	case c.index.shared.Load():
		c.index = &dictIndex{HashIndex: c.index.Clone()}
	}
	if arena != nil {
		s = arena.copy(s)
	}
	code := uint32(len(c.dict))
	c.dict = append(c.dict, s)
	c.index.Add(stringImage(s), code, func(code uint32) uint64 { return stringImage(c.dict[code]) })
	return code, nil
}

// An arena holds the copies one ingest makes of the strings it adds to
// dictionaries, in blocks of up to 16 KiB they share rather than one small
// object each for the collector to mark. The ingest loop owns it; a
// block's bytes are written once, below its length, and never change.
type arena []byte

// copy returns a copy of s in the arena.
func (a *arena) copy(s string) string {
	if s == "" {
		return ""
	}
	if len(s) > cap(*a)-len(*a) {
		*a = make(arena, 0, max(len(s), min(2*cap(*a), 16<<10), 64))
	}
	*a = append(*a, s...)
	return unsafe.String(&(*a)[len(*a)-len(s)], len(s))
}

// codeOf returns the dictionary code of s. It only reads, so concurrent
// scans of a published column may call it.
func (c *stringColumn) codeOf(s string) (uint32, bool) {
	if c.index == nil {
		return 0, false
	}
	return c.index.Find(stringImage(s), func(code uint32) bool { return c.dict[code] == s })
}

// share returns a column without rows over c's dictionary and index, and
// marks the index shared: neither column writes it again.
func (c *stringColumn) share() *stringColumn {
	if c.index != nil && !c.index.shared.Load() {
		c.index.shared.Store(true)
	}
	return &stringColumn{dict: slices.Clip(c.dict), index: c.index, width: c.width}
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

func (c *stringColumn) Distinct() int { return len(c.dict) }

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
			code, err := c.intern(v.Str(), nil)
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

// cloneColumn returns a copy of c that shares nothing mutable with it.
func cloneColumn(c Column) Column {
	switch c := c.(type) {
	case *intColumn:
		return &intColumn{data: slices.Clone(c.data), nulls: slices.Clone(c.nulls), kind: c.kind}
	case *floatColumn:
		return &floatColumn{data: slices.Clone(c.data), nulls: slices.Clone(c.nulls)}
	case *boolColumn:
		return &boolColumn{data: slices.Clone(c.data), nulls: slices.Clone(c.nulls)}
	case *stringColumn:
		out := c.share()
		out.codes = slices.Clone(c.codes)
		return out
	}
	idx := make([]uint32, c.Len())
	for i := range idx {
		idx[i] = uint32(i)
	}
	return c.Gather(idx)
}
