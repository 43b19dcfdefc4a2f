package table

import (
	"fmt"
	"slices"

	"graql/internal/value"
)

// Table is an in-memory, strongly typed columnar table. Rows are addressed
// by dense uint32 ids in insertion order.
type Table struct {
	Name   string
	schema Schema
	cols   []Column
	rows   int
}

// New returns an empty table with the given (validated) schema.
func New(name string, schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Name: name, schema: schema.Clone()}
	t.cols = make([]Column, len(schema))
	for i, c := range schema {
		t.cols[i] = NewColumn(c.Type)
	}
	return t, nil
}

// MustNew is New for statically known-good schemas; it panics on error.
func MustNew(name string, schema Schema) *Table {
	t, err := New(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// FromColumns assembles a table from equally long, freshly gathered columns
// of the schema's kinds, which it takes over. Its columns are typed by kind
// alone: a varchar column sheds the width its source declared, so what may
// be appended later does not depend on where the first rows came from.
func FromColumns(name string, schema Schema, cols []Column) *Table {
	for _, c := range cols {
		unbounded(c)
	}
	return &Table{Name: name, schema: schema, cols: cols, rows: cols[0].Len()}
}

// AppendColumns appends the rows held column-wise in cols, one column per
// column of t and of its kind, cell by cell.
func (t *Table) AppendColumns(cols []Column) error {
	n := cols[0].Len()
	for i, src := range cols {
		for r := uint32(0); r < uint32(n); r++ {
			if err := t.cols[i].Append(src.Value(r)); err != nil {
				return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
			}
		}
	}
	t.rows += n
	return nil
}

// Schema returns the table's schema. Callers must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Col returns the i-th column.
func (t *Table) Col(i int) Column { return t.cols[i] }

// Value returns the value at (row, col).
func (t *Table) Value(row uint32, col int) value.Value {
	return t.cols[col].Value(row)
}

// AppendRow appends one row of typed values. The slice must have one value
// per column with matching kinds.
func (t *Table) AppendRow(vals []value.Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("graql: table %s: row has %d values, want %d", t.Name, len(vals), len(t.cols))
	}
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
		}
	}
	t.rows++
	return nil
}

// AppendStrings parses and appends one textual record (e.g. a CSV record)
// according to the schema's column types. It keeps no reference into rec.
func (t *Table) AppendStrings(rec []string) error {
	if len(rec) != len(t.cols) {
		return fmt.Errorf("graql: table %s: record has %d fields, want %d", t.Name, len(rec), len(t.cols))
	}
	vals := make([]value.Value, len(rec))
	for i, s := range rec {
		v, err := value.Parse(s, t.schema[i].Type)
		if err != nil {
			return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
		}
		vals[i] = v
	}
	return t.AppendRow(vals)
}

// fit moves every array of t, a table no other version shares, into one
// of exactly its length, as a view build allocates its arrays: the form a
// finished ingest hands on. (A dictionary's index already has the size a
// build gives it.)
func (t *Table) fit() {
	for _, c := range t.cols {
		if c, ok := c.(interface{ fit() }); ok {
			c.fit()
		}
	}
}

// Row materialises row i as a value slice (for display and tests; hot paths
// use columnar access).
func (t *Table) Row(i uint32) []value.Value {
	out := make([]value.Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c].Value(i)
	}
	return out
}

// Gather returns a new table containing the given rows, in order.
func (t *Table) Gather(name string, idx []uint32) *Table {
	out := &Table{Name: name, schema: t.schema.Clone(), rows: len(idx)}
	out.cols = make([]Column, len(t.cols))
	for i, c := range t.cols {
		out.cols[i] = c.Gather(idx)
	}
	return out
}

// Empty returns a table without rows, with room for n, whose columns
// take what t's take: the rows a write adds are built and checked there
// before Extend adds them to a new version of t.
func (t *Table) Empty(n int) *Table {
	out := &Table{Name: t.Name, schema: t.schema, cols: make([]Column, len(t.cols))}
	for i, c := range t.cols {
		switch c := c.(type) {
		case *intColumn:
			out.cols[i] = &intColumn{cells[int64]{data: make([]int64, 0, n)}, c.kind}
		case *floatColumn:
			out.cols[i] = &floatColumn{cells[float64]{data: make([]float64, 0, n)}}
		case *boolColumn:
			out.cols[i] = &boolColumn{cells[bool]{data: make([]bool, 0, n)}}
		case *stringColumn:
			out.cols[i] = &stringColumn{codes: make([]uint32, 0, n), width: c.width}
		default:
			out.cols[i] = NewColumn(value.Type{Kind: c.Kind()})
		}
	}
	return out
}

// Extend returns a new version of t holding t's rows and then add's, a
// table built from t.Empty. It appends into the capacity past t's
// arrays wherever they end at their high-water mark (Grow), so it costs
// add's rows, not t's; every other array is copied with headroom. t and
// every version before it read as they did.
func (t *Table) Extend(add *Table) (*Table, error) {
	out := &Table{Name: t.Name, schema: t.schema, rows: t.rows + add.rows, cols: make([]Column, len(t.cols))}
	for i, c := range t.cols {
		var err error
		if out.cols[i], err = extendColumn(c, add.cols[i]); err != nil {
			return nil, fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
		}
	}
	return out, nil
}

// Delete returns a new version of t without the rows hit, which ascend.
// When the rows it keeps form one run — a delete of the oldest rows, or
// of the newest — each column is re-sliced and shares t's arrays; a
// NULL mask is copied, shifted. Otherwise the kept rows are gathered
// into arrays with headroom.
func (t *Table) Delete(hit []uint32) *Table {
	out := &Table{Name: t.Name, schema: t.schema, rows: t.rows - len(hit), cols: make([]Column, len(t.cols))}
	lo := 0
	for lo < len(hit) && hit[lo] == uint32(lo) {
		lo++
	}
	if hi := lo + out.rows; lo == len(hit) || hit[lo] == uint32(hi) {
		for i, c := range t.cols {
			out.cols[i] = sliceColumn(c, lo, hi)
		}
		return out
	}
	keep := make([]uint32, 0, out.rows)
	for r, h := uint32(0), 0; r < uint32(t.rows); r++ {
		if h < len(hit) && hit[h] == r {
			h++
		} else {
			keep = append(keep, r)
		}
	}
	for i, c := range t.cols {
		out.cols[i] = keepColumn(c, keep)
	}
	return out
}

// Patch returns a new version of t in which cell (rows[i], cols[j]) holds
// vals[i][j], already of the column's kind. Only the columns in cols are
// copied, with headroom; every other column is shared with t, which
// nothing mutates once it is published.
func (t *Table) Patch(cols []int, rows []uint32, vals [][]value.Value) (*Table, error) {
	out := &Table{Name: t.Name, schema: t.schema, rows: t.rows, cols: slices.Clone(t.cols)}
	for j, c := range cols {
		col := copyColumn(t.cols[c])
		for i, r := range rows {
			if err := setCell(col, r, vals[i][j]); err != nil {
				return nil, fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[c].Name, err)
			}
		}
		out.cols[c] = col
	}
	return out, nil
}

// Clone returns a deep copy of the table: appending to or rewriting the
// clone never disturbs the original, so mutations can build a new table
// version aside while readers keep using the published one.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, schema: t.schema.Clone(), rows: t.rows}
	out.cols = make([]Column, len(t.cols))
	for i, c := range t.cols {
		out.cols[i] = copyColumn(c)
	}
	return out
}

// ProjectCols returns a new table with only the named column indexes, in
// the given order, preserving all rows.
func (t *Table) ProjectCols(name string, colIdx []int, names []string) *Table {
	out := &Table{Name: name, rows: t.rows}
	for j, ci := range colIdx {
		cn := t.schema[ci].Name
		if names != nil && names[j] != "" {
			cn = names[j]
		}
		out.schema = append(out.schema, ColumnDef{Name: cn, Type: value.Type{Kind: t.cols[ci].Kind()}})
		out.cols = append(out.cols, t.cols[ci])
	}
	return out
}

// KeyOf encodes the values of the given columns at row i into a canonical
// byte key (appended to dst), for joins and group-by.
func (t *Table) KeyOf(dst []byte, row uint32, cols []int) []byte {
	for _, c := range cols {
		dst = t.cols[c].Value(row).AppendKey(dst)
	}
	return dst
}
