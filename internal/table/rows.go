package table

import (
	"cmp"
	"fmt"
	"slices"

	"graql/internal/bitmap"
	"graql/internal/value"
)

// Rows is a late-materialised relation: some rows of one table, named by a
// selection vector, in output order. A filter produces one; group-by,
// distinct, order-by and top-n consume and produce them without copying a
// cell, and Materialize gathers the surviving rows of the wanted columns
// once, at the end (DESIGN.md §16).
type Rows struct {
	t   *Table
	idx []uint32 // row ids in output order; unused when all
	all bool     // every row of t, in storage order
}

// AllRows is every row of t, in storage order.
func AllRows(t *Table) Rows { return Rows{t: t, all: true} }

// RowsOf is the rows idx of t, in that order.
func RowsOf(t *Table, idx []uint32) Rows { return Rows{t: t, idx: idx} }

// Len returns the number of rows.
func (r Rows) Len() int { return r.span().len() }

// At returns the table row id of the i-th row.
func (r Rows) At(i int) uint32 { return r.span().at(i) }

func (r Rows) span() span {
	if r.all {
		return span{hi: uint32(r.t.rows)}
	}
	return span{sel: r.idx}
}

// Materialize gathers the rows into a new table holding columns cols of
// the source (nil: all of them) under the given schema (nil: the source
// columns' own definitions). When every row survives in storage order the
// result shares the source's column vectors, which nothing mutates once a
// table is published.
func (r Rows) Materialize(name string, cols []int, schema Schema) *Table {
	if cols == nil {
		cols = r.t.allCols()
	}
	out := &Table{Name: name, schema: schema, rows: r.Len()}
	if schema == nil {
		for _, c := range cols {
			out.schema = append(out.schema, r.t.schema[c])
		}
	}
	out.cols = make([]Column, len(cols))
	for i, c := range cols {
		if out.cols[i] = r.t.cols[c]; !r.all {
			out.cols[i] = r.t.cols[c].Gather(r.idx)
		}
	}
	return out
}

// allCols lists every column index of t.
func (t *Table) allCols() []int {
	cols := make([]int, len(t.cols))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Top keeps the first n rows.
func (r Rows) Top(n int) Rows {
	if n >= r.Len() {
		return r
	}
	if r.all {
		idx := make([]uint32, n)
		for i := range idx {
			idx[i] = uint32(i)
		}
		return Rows{t: r.t, idx: idx}
	}
	return Rows{t: r.t, idx: r.idx[:n]}
}

// Distinct keeps the first row of every distinct combination of values in
// the given columns (nil: all columns).
func (r Rows) Distinct(cols []int) Rows {
	if cols == nil {
		cols = r.t.allCols()
	}
	_, first := r.t.groupIDs(r.span(), cols)
	return Rows{t: r.t, idx: first}
}

// --- group ids ---------------------------------------------------------------

// idTable hands out dense ids to 64-bit keys in order of first use.
type idTable struct {
	m    map[uint64]uint32
	next uint32
}

func (t *idTable) of(k uint64) uint32 {
	id, ok := t.m[k]
	if !ok {
		id = t.next
		t.next++
		t.m[k] = id
	}
	return id
}

// denseIDs numbers the keys of n rows, each below bound, in order of first
// use: through a bound-sized table when that is no larger than a few cells
// per row, through a hash map otherwise.
func denseIDs(n, bound int, key func(i int) uint64) ([]uint32, int) {
	ids := make([]uint32, n)
	if bound <= 4*n+64 {
		slot := make([]uint32, bound) // id+1; 0 marks an unseen key
		next := uint32(0)
		for i := range ids {
			k := key(i)
			if slot[k] == 0 {
				next++
				slot[k] = next
			}
			ids[i] = slot[k] - 1
		}
		return ids, int(next)
	}
	tab := idTable{m: make(map[uint64]uint32)}
	for i := range ids {
		ids[i] = tab.of(key(i))
	}
	return ids, int(tab.next)
}

// sparseIDs numbers n rows by an arbitrary 64-bit key plus a NULL flag.
func sparseIDs(n int, key func(i int) (k uint64, null bool)) ([]uint32, int) {
	ids := make([]uint32, n)
	tab := idTable{m: make(map[uint64]uint32)}
	nullID := noRow
	for i := range ids {
		k, null := key(i)
		switch {
		case !null:
			ids[i] = tab.of(k)
		case nullID == noRow:
			nullID = tab.next
			tab.next++
			fallthrough
		default:
			ids[i] = nullID
		}
	}
	return ids, int(tab.next)
}

// columnIDs numbers the rows of s by their value in column c (NULL is a
// value of its own), in order of first occurrence. Strings are numbered by
// dictionary code and numbers by their payload; nothing is boxed.
func columnIDs(c Column, s span) ([]uint32, int) {
	n := s.len()
	switch c := c.(type) {
	case *stringColumn:
		// NULL's code is above every other: min maps it to len(dict).
		nullKey := uint32(c.dict.len())
		if c.dict.len() >= 4*n+64 {
			return denseIDs(n, c.dict.len()+1, func(i int) uint64 { return uint64(min(c.codes[s.at(i)], nullKey)) })
		}
		// slot holds id+1 per code, 0 for an unseen one; a new key takes
		// the next id without a branch.
		ids, slot, next := make([]uint32, n), make([]uint32, c.dict.len()+1), uint32(0)
		for i := range ids {
			code := min(c.codes[s.at(i)], nullKey)
			id := slot[code]
			unseen := uint32(bit(id == 0))
			next += unseen
			id += unseen * next
			slot[code], ids[i] = id, id-1
		}
		return ids, int(next)
	case *boolColumn:
		return denseIDs(n, 3, func(i int) uint64 {
			switch r := s.at(i); {
			case c.nulls.Get(r):
				return 2
			case c.data[r]:
				return 1
			}
			return 0
		})
	case *intColumn:
		return sparseIDs(n, func(i int) (uint64, bool) {
			r := s.at(i)
			return uint64(c.data[r]), c.nulls.Get(r)
		})
	case *floatColumn:
		return sparseIDs(n, func(i int) (uint64, bool) {
			r := s.at(i)
			return value.FloatKey(c.data[r]), c.nulls.Get(r)
		})
	}
	// A column representation without raw access: number its boxed keys.
	ids := make([]uint32, n)
	seen := make(map[string]uint32)
	var key []byte
	for i := range ids {
		key = c.Value(s.at(i)).AppendKey(key[:0])
		id, ok := seen[string(key)]
		if !ok {
			id = uint32(len(seen))
			seen[string(key)] = id
		}
		ids[i] = id
	}
	return ids, len(seen)
}

// groupIDs numbers the rows of s by their values in cols: ids[i] is the
// group of row s.at(i), groups are numbered in order of first occurrence,
// and first[g] is the first row of group g. No columns means one group.
func (t *Table) groupIDs(s span, cols []int) (ids, first []uint32) {
	n, ng := s.len(), 0
	if len(cols) == 0 {
		ids, ng = make([]uint32, n), min(n, 1)
	}
	for i, c := range cols {
		cids, cn := columnIDs(t.cols[c], s)
		if i == 0 {
			ids, ng = cids, cn
			continue
		}
		// Refine the groups so far by this column: a pair of ids is a key.
		prev, width := ids, uint64(cn)
		ids, ng = denseIDs(n, ng*cn, func(i int) uint64 { return uint64(prev[i])*width + uint64(cids[i]) })
	}
	// Backwards, the last write to first[g] is the group's first row.
	first = make([]uint32, ng)
	for i := len(ids) - 1; i >= 0; i-- {
		first[ids[i]] = s.at(i)
	}
	return ids, first
}

// --- group-by ----------------------------------------------------------------

// aggState is the running state of one aggregate, one cell per group.
type aggState struct {
	cnt  []int64   // non-NULL inputs (count(*): rows)
	sumI []int64   // sum over an integer column
	sumF []float64 // any other sum; avg's numerator for either numeric kind
	ext  []uint32  // min/max: the row holding the extreme, noRow for none
}

// newAggState allocates the state of aggregate a over ng groups of t.
func newAggState(t *Table, a AggSpec, ng int) *aggState {
	st := &aggState{cnt: make([]int64, ng)}
	switch a.Func {
	case AggSum, AggAvg:
		if a.Func == AggSum && t.cols[a.Col].Kind() == value.KindInt {
			st.sumI = make([]int64, ng)
		} else {
			st.sumF = make([]float64, ng)
		}
	case AggMin, AggMax:
		st.ext = make([]uint32, ng)
		for g := range st.ext {
			st.ext[g] = noRow
		}
	}
	return st
}

// nonNull narrows s and its group ids to the rows non-NULL in nulls; a
// column with no NULL keeps them as they are. (Rows need not ascend, so
// the whole mask is read.)
func nonNull(nulls bitmap.Mask, s span, ids []uint32) (span, []uint32) {
	if !nullsIn(nulls, span{hi: uint32(64 * len(nulls))}) {
		return s, ids
	}
	sel, gs := make([]uint32, 0, len(ids)), make([]uint32, 0, len(ids))
	for i, g := range ids {
		if r := s.at(i); !nulls.Get(r) {
			sel, gs = append(sel, r), append(gs, g)
		}
	}
	return span{sel: sel}, gs
}

// sums adds the values of data on the NULL-free rows of s, grouped by
// ids, into sum and counts them in cnt.
func sums[T int64 | float64, S int64 | float64](data []T, s span, ids []uint32, cnt []int64, sum []S) {
	if s.sel == nil {
		data = data[s.lo:s.hi]
		for i, g := range ids {
			cnt[g]++
			sum[g] += S(data[i])
		}
		return
	}
	for i, g := range ids {
		cnt[g]++
		sum[g] += S(data[s.sel[i]])
	}
}

// fold folds the values of a numeric column into the state: the rows NULL
// in nulls drop out first, so the loops have no NULL test.
func fold[T int64 | float64](st *aggState, data []T, nulls bitmap.Mask, sign int, s span, ids []uint32) {
	s, ids = nonNull(nulls, s, ids)
	switch {
	case sign != 0:
		extremes(st, data, sign, s, ids)
	case st.sumI != nil:
		sums(data, s, ids, st.cnt, st.sumI)
	case st.sumF != nil:
		sums(data, s, ids, st.cnt, st.sumF)
	default:
		for _, g := range ids {
			st.cnt[g]++
		}
	}
}

// above reports whether x sorts after y under cmp.Compare, which puts NaN
// first and holds -0 = +0.
func above[T int64 | float64](x, y T) bool { return x > y || y != y && x == x }

// extremes tracks per group the first of the NULL-free rows of s holding
// the least (sign -1) or greatest (sign +1) value of data. It keeps each
// group's extreme value beside its row, so no row is read twice, and runs
// one loop per direction, so the comparison is not chosen per row.
func extremes[T int64 | float64](st *aggState, data []T, sign int, s span, ids []uint32) {
	cnt, ext, best := st.cnt, st.ext, make([]T, len(st.ext))
	if sign > 0 {
		for i, g := range ids {
			r := s.at(i)
			cnt[g]++
			if x := data[r]; ext[g] == noRow || above(x, best[g]) {
				ext[g], best[g] = r, x
			}
		}
		return
	}
	for i, g := range ids {
		r := s.at(i)
		cnt[g]++
		if x := data[r]; ext[g] == noRow || above(best[g], x) {
			ext[g], best[g] = r, x
		}
	}
}

// accumulate folds the rows of s, grouped by ids, into the state.
func (st *aggState) accumulate(t *Table, a AggSpec, s span, ids []uint32) {
	if a.Col < 0 {
		for _, g := range ids {
			st.cnt[g]++ // count(*) counts every row
		}
		return
	}
	sign := 0
	switch a.Func {
	case AggMin:
		sign = -1
	case AggMax:
		sign = 1
	}
	col := t.cols[a.Col]
	switch c := col.(type) {
	case *intColumn:
		fold(st, c.data, c.nulls, sign, s, ids)
		return
	case *floatColumn:
		fold(st, c.data, c.nulls, sign, s, ids)
		return
	}
	// Strings, booleans and other representations: NULL test and ordering
	// through the column, still unboxed for the built-in representations.
	var order func(a, b uint32) int
	if sign != 0 {
		order = t.keyCmp(SortKey{Col: a.Col}, new(error))
	}
	for i, g := range ids {
		r := s.at(i)
		if col.IsNull(r) {
			continue
		}
		st.cnt[g]++
		if sign != 0 && (st.ext[g] == noRow || sign*order(r, st.ext[g]) > 0) {
			st.ext[g] = r
		}
	}
}

// result renders the state as the aggregate's output column.
func (st *aggState) result(t *Table, a AggSpec) (Column, error) {
	if a.Func == AggCount {
		return &intColumn{cells[int64]{data: st.cnt}, value.KindInt}, nil
	}
	col := t.cols[a.Col]
	if a.Func == AggMin || a.Func == AggMax {
		return unbounded(col.Gather(st.ext)), nil
	}
	if !col.Kind().Numeric() {
		return nil, fmt.Errorf("graql: %s over non-numeric column (%s)", a.Func, col.Kind())
	}
	if a.Func == AggSum && col.Kind() == value.KindInt {
		out := &intColumn{cells[int64]{data: st.sumI}, value.KindInt}
		for g, n := range st.cnt {
			if n == 0 {
				out.nulls.Set(uint32(g)) // SQL: sum over no input is NULL
			}
		}
		return out, nil
	}
	out := &floatColumn{cells[float64]{data: st.sumF}}
	for g, n := range st.cnt {
		switch {
		case n == 0:
			out.nulls.Set(uint32(g))
		case a.Func == AggAvg:
			out.data[g] /= float64(n)
		}
	}
	return out, nil
}

// GroupBy groups the rows by the key columns and evaluates the aggregates
// per group. The output schema is the key columns (in order) followed by
// one column per aggregate; groups appear in order of first occurrence. No
// key columns computes global aggregates (one output row, also over no
// input).
func (r Rows) GroupBy(name string, keyCols []int, aggs []AggSpec) (*Table, error) {
	t, s := r.t, r.span()
	ids, first := t.groupIDs(s, keyCols)
	ng := len(first)
	if len(keyCols) == 0 {
		ng = 1 // the global group exists even over no input
	}
	schema := groupOutSchema(t, keyCols, aggs)
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if ng == 0 {
		return New(name, schema)
	}
	out := &Table{Name: name, schema: schema, rows: ng}
	for _, c := range keyCols {
		out.cols = append(out.cols, unbounded(t.cols[c].Gather(first)))
	}
	for _, a := range aggs {
		st := newAggState(t, a, ng)
		st.accumulate(t, a, s, ids)
		col, err := st.result(t, a)
		if err != nil {
			return nil, err
		}
		out.cols = append(out.cols, col)
	}
	return out, nil
}

// unbounded drops the declared width of a freshly gathered varchar column:
// group-by and graph-select output columns are typed by kind alone.
func unbounded(c Column) Column {
	if sc, ok := c.(*stringColumn); ok {
		sc.width = 0
	}
	return c
}

// --- order-by and top-n --------------------------------------------------------

// orderedCmp compares rows of one typed vector, ascending or descending:
// NULLs first, then by cmp.Compare, which orders floats as value.Compare
// does. A vector with no NULL gets a comparator with no NULL test.
func orderedCmp[T cmp.Ordered](data []T, nulls bitmap.Mask, desc bool) func(a, b uint32) int {
	switch {
	case nullsIn(nulls, span{hi: uint32(len(data))}):
	case desc:
		return func(a, b uint32) int { return cmp.Compare(data[b], data[a]) }
	default:
		return func(a, b uint32) int { return cmp.Compare(data[a], data[b]) }
	}
	return func(a, b uint32) int {
		if desc {
			a, b = b, a
		}
		switch an, bn := nulls.Get(a), nulls.Get(b); {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		}
		return cmp.Compare(data[a], data[b])
	}
}

// keyCmp returns the three-way comparison of two rows of t under one sort
// key: typed and unboxed for the built-in column representations, through
// value.Compare otherwise — the only form that can fail, in which case the
// first error is kept in *errp and every later comparison reads as equal.
func (t *Table) keyCmp(k SortKey, errp *error) func(a, b uint32) int {
	var c func(a, b uint32) int
	switch col := t.cols[k.Col].(type) {
	case *intColumn:
		return orderedCmp(col.data, col.nulls, k.Desc)
	case *floatColumn:
		return orderedCmp(col.data, col.nulls, k.Desc)
	case *boolColumn:
		rank := func(r uint32) int {
			switch {
			case col.nulls.Get(r):
				return 0
			case col.data[r]:
				return 2
			}
			return 1
		}
		c = func(a, b uint32) int { return rank(a) - rank(b) }
	case *stringColumn:
		c = func(a, b uint32) int {
			switch ca, cb := col.codes[a], col.codes[b]; {
			case ca == cb:
				return 0
			case ca == nullCode:
				return -1
			case cb == nullCode:
				return 1
			default:
				return cmp.Compare(col.dict.at(ca), col.dict.at(cb))
			}
		}
	default:
		c = func(a, b uint32) int {
			if *errp != nil {
				return 0
			}
			r, err := value.Compare(col.Value(a), col.Value(b))
			if err != nil {
				*errp = err
			}
			return r
		}
	}
	if k.Desc {
		return func(a, b uint32) int { return -c(a, b) }
	}
	return c
}

// rowCmp orders rows of t under the sort keys: the first key with a
// non-zero comparison decides.
func (t *Table) rowCmp(keys []SortKey, errp *error) func(a, b uint32) int {
	cmps := make([]func(a, b uint32) int, len(keys))
	for i, k := range keys {
		cmps[i] = t.keyCmp(k, errp)
	}
	if len(cmps) == 1 {
		return cmps[0]
	}
	return func(a, b uint32) int {
		for _, c := range cmps {
			if r := c(a, b); r != 0 {
				return r
			}
		}
		return 0
	}
}

// OrderBy sorts the rows by the keys, stably: rows that compare equal keep
// their input order, so output is deterministic. With top > 0 only the
// first top rows of that order are produced, by a bounded heap instead of a
// full sort; the result is exactly the prefix the stable sort would give.
// A full sort of an input that clears p's threshold sorts one contiguous
// run per worker and merges neighbouring runs, ties to the earlier run,
// which is the same order.
func (r Rows) OrderBy(keys []SortKey, top int, p Par) (Rows, error) {
	s := r.span()
	n := s.len()
	if top > 0 && top < n {
		var err error
		idx := topRows(s, top, r.t.rowCmp(keys, &err))
		return Rows{t: r.t, idx: idx}, err
	}
	idx := s.minus(nil)
	shards := 1
	if p.Parallel(n) {
		shards = min(p.Workers, n)
	}
	// One comparator per run: the generic comparator latches its error.
	runs, errs := make([][]uint32, shards), make([]error, shards)
	sortRun := func(k int) {
		runs[k] = idx[k*n/shards : (k+1)*n/shards]
		slices.SortStableFunc(runs[k], r.t.rowCmp(keys, &errs[k]))
	}
	if shards == 1 {
		sortRun(0)
	} else if err := p.Run(shards, func(k int) error { sortRun(k); return nil }); err != nil {
		return Rows{}, err
	}
	for _, err := range errs {
		if err != nil {
			return Rows{}, err
		}
	}
	var err error
	order := r.t.rowCmp(keys, &err)
	for tick := 0; len(runs) > 1; {
		merged := runs[:0:0]
		for k := 0; k < len(runs); k += 2 {
			if k+1 == len(runs) {
				merged = append(merged, runs[k])
				break
			}
			a, b := runs[k], runs[k+1]
			out := make([]uint32, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				if perr := p.poll(&tick); perr != nil {
					return Rows{}, perr
				}
				if order(b[0], a[0]) < 0 {
					out, b = append(out, b[0]), b[1:]
				} else {
					out, a = append(out, a[0]), a[1:]
				}
			}
			merged = append(merged, append(append(out, a...), b...))
		}
		runs = merged
	}
	return Rows{t: r.t, idx: runs[0]}, err
}

// topRows returns the n smallest rows of s under order, ties broken by input
// position, in order. It keeps a max-heap of the n best positions seen so
// far: most rows cost one comparison against the heap's worst.
func topRows(s span, n int, order func(a, b uint32) int) []uint32 {
	// before reports whether position x sorts before position y.
	before := func(x, y uint32) bool {
		c := order(s.at(int(x)), s.at(int(y)))
		return c < 0 || (c == 0 && x < y)
	}
	h := make([]uint32, 0, n)
	down := func(i int) {
		for {
			kid := 2*i + 1
			if kid >= len(h) {
				return
			}
			if kid+1 < len(h) && before(h[kid], h[kid+1]) {
				kid++
			}
			if !before(h[i], h[kid]) {
				return
			}
			h[i], h[kid] = h[kid], h[i]
			i = kid
		}
	}
	for i, cnt := 0, s.len(); i < cnt; i++ {
		pos := uint32(i)
		switch {
		case len(h) < n:
			h = append(h, pos)
			for k := len(h) - 1; k > 0 && before(h[(k-1)/2], h[k]); k = (k - 1) / 2 {
				h[k], h[(k-1)/2] = h[(k-1)/2], h[k]
			}
		case before(pos, h[0]):
			h[0] = pos
			down(0)
		}
	}
	slices.SortFunc(h, func(x, y uint32) int {
		if before(x, y) {
			return -1
		}
		return 1
	})
	for i, pos := range h {
		h[i] = s.at(int(pos))
	}
	return h
}
