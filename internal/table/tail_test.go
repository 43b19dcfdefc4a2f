package table

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graql/internal/value"
)

// TestVersionsNeverShowThrough derives versions of one table from random
// earlier ones — Extend with rows holding NULLs and new strings, Delete of
// a run or of scattered rows, Patch — and checks every version against
// its model after every step. Two versions extended from one, a version
// re-sliced from the front and then extended, or a version left behind by
// a later one, all share arrays up to the high-water mark: none may see
// another's rows.
func TestVersionsNeverShowThrough(t *testing.T) {
	schema := Schema{
		{Name: "i", Type: value.Int}, {Name: "f", Type: value.Float},
		{Name: "b", Type: value.Bool}, {Name: "s", Type: value.Varchar(6)},
	}
	type version struct {
		t    *Table
		rows [][]value.Value
	}
	r := rand.New(rand.NewSource(46))
	cell := func(c, serial int) value.Value {
		if r.Intn(5) == 0 {
			return value.NewNull(schema[c].Type.Kind)
		}
		switch c {
		case 0:
			return value.NewInt(int64(serial))
		case 1:
			return value.NewFloat(float64(serial) + 0.5)
		case 2:
			return value.NewBool(serial%2 == 0)
		}
		return value.NewString(fmt.Sprintf("s%d", serial%997))
	}
	serial := 0
	newRows := func(n int) [][]value.Value {
		out := make([][]value.Value, n)
		for i := range out {
			serial++
			out[i] = make([]value.Value, len(schema))
			for c := range schema {
				out[i][c] = cell(c, serial)
			}
		}
		return out
	}
	check := func(step int, v version) {
		if v.t.NumRows() != len(v.rows) {
			t.Fatalf("step %d: %d rows, want %d", step, v.t.NumRows(), len(v.rows))
		}
		for i, row := range v.rows {
			for c, want := range row {
				if got := v.t.Value(uint32(i), c); !value.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
					t.Fatalf("step %d: row %d column %s = %v, want %v", step, i, schema[c].Name, got, want)
				}
			}
		}
	}
	base := MustNew("T", schema)
	for _, row := range newRows(40) {
		if err := base.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	versions := []version{{base, newRows(0)}}
	for i := range base.NumRows() {
		versions[0].rows = append(versions[0].rows, base.Row(uint32(i)))
	}
	for step := range 400 {
		// Newer versions are picked more often: they hold the marks.
		from := versions[len(versions)-1-min(r.Intn(len(versions)), r.Intn(4))]
		next := version{rows: slices.Clone(from.rows)}
		switch n := len(from.rows); {
		case r.Intn(2) == 0 || n == 0:
			add, rows := from.t.Empty(4), newRows(1+r.Intn(70))
			for _, row := range rows {
				if err := add.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if next.t, err = from.t.Extend(add); err != nil {
				t.Fatal(err)
			}
			next.rows = append(next.rows, rows...)
		case r.Intn(3) > 0:
			var hit []uint32
			if lo, hi := r.Intn(n/2+1), n-r.Intn(n/2+1); r.Intn(2) == 0 { // a run survives
				for i := range n {
					if i < lo || i >= hi {
						hit = append(hit, uint32(i))
					}
				}
			} else {
				for i := range n {
					if r.Intn(4) == 0 {
						hit = append(hit, uint32(i))
					}
				}
			}
			next.t, next.rows = from.t.Delete(hit), nil
			for i, row := range from.rows {
				if _, gone := slices.BinarySearch(hit, uint32(i)); !gone {
					next.rows = append(next.rows, row)
				}
			}
		default:
			row, c := uint32(r.Intn(n)), r.Intn(len(schema))
			v := newRows(1)[0][c]
			var err error
			if next.t, err = from.t.Patch([]int{c}, []uint32{row}, [][]value.Value{{v}}); err != nil {
				t.Fatal(err)
			}
			next.rows[row] = slices.Clone(next.rows[row])
			next.rows[row][c] = v
		}
		versions = append(versions, next)
		for _, v := range versions {
			check(step, v)
		}
	}
}
