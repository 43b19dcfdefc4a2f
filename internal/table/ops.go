package table

import "graql/internal/value"

// This file implements the relational operations of the paper's Table I:
// select (selection + projection), order by, group by, distinct, count,
// avg, min, max, sum, top n, and aliasing (via projection names).

// Pred is a row predicate used by Filter. Errors abort the scan (they
// indicate type errors that escaped static analysis).
type Pred func(row uint32) (bool, error)

// FilterIdx returns the row ids for which pred holds, in order.
func FilterIdx(t *Table, pred Pred) ([]uint32, error) {
	var idx []uint32
	for r := uint32(0); r < uint32(t.NumRows()); r++ {
		ok, err := pred(r)
		if err != nil {
			return nil, err
		}
		if ok {
			idx = append(idx, r)
		}
	}
	return idx, nil
}

// SortKey names one ordering column for OrderBy.
type SortKey struct {
	Col  int
	Desc bool
}

// OrderBy returns a new table sorted by the given keys. The sort is stable
// so that secondary insertion order is preserved, which keeps query output
// deterministic.
func OrderBy(t *Table, keys []SortKey) (*Table, error) {
	return OrderByPar(t, keys, Par{})
}

// Distinct returns a new table with duplicate rows (over the given columns;
// nil means all columns) removed, keeping the first occurrence.
func Distinct(t *Table, cols []int) *Table {
	return AllRows(t).Distinct(cols).Materialize(t.Name, nil, nil)
}

// TopN returns the first n rows of t (Table I's "top n"; callers order
// first).
func TopN(t *Table, n int) *Table {
	return AllRows(t).Top(n).Materialize(t.Name, nil, nil)
}

// AggFunc enumerates the aggregate functions of Table I.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// AggSpec describes one aggregate output column. Col is the input column,
// or -1 for count(*). Name is the output column name (the "as" alias).
type AggSpec struct {
	Func AggFunc
	Col  int
	Name string
}

func aggOutType(f AggFunc, in value.Type) value.Type {
	switch f {
	case AggCount:
		return value.Int
	case AggAvg:
		return value.Float
	case AggSum:
		if in.Kind == value.KindFloat {
			return value.Float
		}
		return value.Int
	default:
		return in
	}
}

// groupOutSchema is the output schema of a group-by: the key columns (in
// order) followed by one column per aggregate.
func groupOutSchema(t *Table, keyCols []int, aggs []AggSpec) Schema {
	var schema Schema
	for _, c := range keyCols {
		schema = append(schema, ColumnDef{Name: t.Schema()[c].Name, Type: value.Type{Kind: t.Col(c).Kind()}})
	}
	for _, a := range aggs {
		in := value.Type{Kind: value.KindInt}
		if a.Col >= 0 {
			in = value.Type{Kind: t.Col(a.Col).Kind()}
		}
		colName := a.Name
		if colName == "" {
			colName = a.Func.String()
		}
		schema = append(schema, ColumnDef{Name: colName, Type: aggOutType(a.Func, in)})
	}
	return schema
}

// GroupBy groups rows of t by the key columns and evaluates the given
// aggregates per group. The output schema is the key columns (in order)
// followed by one column per aggregate. Groups appear in order of first
// occurrence, so output is deterministic. An empty keyCols computes global
// aggregates over the whole table (one output row).
func GroupBy(t *Table, name string, keyCols []int, aggs []AggSpec) (*Table, error) {
	return AllRows(t).GroupBy(name, keyCols, aggs)
}

// HashJoinIdx computes the inner equi-join of l and r on the given key
// columns and returns matching row-id pairs. The smaller side is hashed.
// NULL keys never join (SQL semantics).
func HashJoinIdx(l, r *Table, lCols, rCols []int) (lIdx, rIdx []uint32) {
	if len(lCols) != len(rCols) {
		panic("graql: HashJoinIdx: key arity mismatch")
	}
	build, probe := l, r
	bCols, pCols := lCols, rCols
	swapped := false
	if r.NumRows() < l.NumRows() {
		build, probe = r, l
		bCols, pCols = rCols, lCols
		swapped = true
	}
	ht := make(map[string][]uint32, build.NumRows())
	var key []byte
	for row := uint32(0); row < uint32(build.NumRows()); row++ {
		if anyNull(build, row, bCols) {
			continue
		}
		key = build.KeyOf(key[:0], row, bCols)
		ht[string(key)] = append(ht[string(key)], row)
	}
	for row := uint32(0); row < uint32(probe.NumRows()); row++ {
		if anyNull(probe, row, pCols) {
			continue
		}
		key = probe.KeyOf(key[:0], row, pCols)
		for _, b := range ht[string(key)] {
			if swapped {
				lIdx = append(lIdx, row)
				rIdx = append(rIdx, b)
			} else {
				lIdx = append(lIdx, b)
				rIdx = append(rIdx, row)
			}
		}
	}
	return lIdx, rIdx
}

func anyNull(t *Table, row uint32, cols []int) bool {
	for _, c := range cols {
		if t.cols[c].IsNull(row) {
			return true
		}
	}
	return false
}
