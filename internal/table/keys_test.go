package table

import (
	"math"
	"math/rand"
	"testing"

	"graql/internal/value"
)

// keyTable holds one column of every kind with values from small domains,
// NULLs and the two float zeros, so keys collide.
func keyTable(rng *rand.Rand, rows int) *Table {
	tb := MustNew("K", Schema{
		{Name: "i", Type: value.Int}, {Name: "f", Type: value.Float}, {Name: "s", Type: value.Varchar(4)},
		{Name: "d", Type: value.Date}, {Name: "b", Type: value.Bool},
	})
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN()}
	for r := 0; r < rows; r++ {
		vals := []value.Value{
			value.NewInt(int64(rng.Intn(5) - 2)), value.NewFloat(floats[rng.Intn(len(floats))]),
			value.NewString(string(rune('a' + rng.Intn(4)))), value.NewDate(int64(rng.Intn(4))), value.NewBool(rng.Intn(2) == 0),
		}
		for c := range vals {
			if rng.Intn(7) == 0 {
				vals[c] = value.NewNull(vals[c].Kind())
			}
		}
		if err := tb.AppendRow(vals); err != nil {
			panic(err)
		}
	}
	return tb
}

// appendKey is the specification of key equality: two tuples are one key
// when they hold no NULL and their Value.AppendKey encodings agree.
func appendKey(vals []value.Value) (string, bool) {
	var key []byte
	for _, v := range vals {
		if v.IsNull() {
			return "", false
		}
		key = v.AppendKey(key)
	}
	return string(key), true
}

func TestKeyHashAndEqualityFollowAppendKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := keyTable(rng, 120), keyTable(rng, 120).Gather("G", []uint32{5, 4, 3, 2, 1, 0, 7, 9, 11, 60, 61, 62})
	for _, cols := range [][]int{{0}, {1}, {2}, {3}, {4}, {2, 0}, {1, 3, 4}} {
		// HashKeys hashes the rows it is given, here in reverse.
		n := uint32(a.NumRows())
		rows := make([]uint32, n)
		for i := range rows {
			rows[i] = n - 1 - uint32(i)
		}
		hashes, nulls := a.HashKeys(rows, cols)
		for r := uint32(0); r < n; r++ {
			vals := make([]value.Value, len(cols))
			for k, c := range cols {
				vals[k] = a.Value(r, c)
			}
			key, ok := appendKey(vals)
			h, hok := a.HashKey(r, cols)
			hv, vok := HashValues(vals)
			if hok != ok || vok != ok || nulls.Get(n-1-r) == ok {
				t.Fatalf("cols %v row %d: a key is present %v, HashKey says %v, HashValues %v, HashKeys %v", cols, r, ok, hok, vok, !nulls.Get(n-1-r))
			}
			if ok && (h != hv || h != hashes[n-1-r]) {
				t.Fatalf("cols %v row %d: HashKey %x, HashValues %x, HashKeys %x", cols, r, h, hv, hashes[n-1-r])
			}
			if a.EqualValues(r, cols, vals) != ok {
				t.Fatalf("cols %v row %d: EqualValues with the row's own values = %v", cols, r, !ok)
			}
			for o := uint32(0); o < uint32(b.NumRows()); o++ {
				ovals := make([]value.Value, len(cols))
				for k, c := range cols {
					ovals[k] = b.Value(o, c)
				}
				okey, ook := appendKey(ovals)
				want := ok && ook && key == okey
				if got := a.EqualKey(r, cols, b, o, cols); got != want {
					t.Fatalf("cols %v: EqualKey(%v, %v) = %v, want %v", cols, vals, ovals, got, want)
				}
				if want {
					if oh, _ := b.HashKey(o, cols); oh != h {
						t.Fatalf("cols %v: equal keys %v hash to %x and %x", cols, vals, h, oh)
					}
				}
			}
		}
	}
	// Kinds are part of a key: an integer never equals a date or a float.
	if a.EqualKey(0, []int{0}, a, 0, []int{3}) || a.EqualValues(0, []int{0}, []value.Value{value.NewFloat(1)}) {
		t.Error("cells of different kinds compared equal")
	}
}

func TestMatchColumnEqualsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := keyTable(rng, 200)
	other := keyTable(rng, 9)
	rows := []uint32{7, 3, 3, 150, 0, 42, 199}
	for col := 0; col < tb.NumCols(); col++ {
		probes := []value.Value{value.NewNull(tb.Col(col).Kind()), value.NewInt(1), value.NewString("zz")}
		for r := uint32(0); r < uint32(other.NumRows()); r++ {
			probes = append(probes, other.Value(r, col))
		}
		for _, sel := range [][]uint32{nil, rows} {
			n := tb.NumRows()
			if sel != nil {
				n = len(sel)
			}
			var want, got [][2]int
			for i := 0; i < n; i++ {
				r := uint32(i)
				if sel != nil {
					r = sel[i]
				}
				ck, cok := appendKey([]value.Value{tb.Value(r, col)})
				for j, p := range probes {
					if pk, pok := appendKey([]value.Value{p}); cok && pok && ck == pk {
						want = append(want, [2]int{i, j})
					}
				}
			}
			err := tb.MatchColumn(col, sel, probes, func(i uint32, j int) error {
				got = append(got, [2]int{int(i), j})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("col %d: %d matches, want %d", col, len(got), len(want))
			}
			seen := map[[2]int]bool{}
			for _, m := range got {
				seen[m] = true
			}
			for _, m := range want {
				if !seen[m] {
					t.Fatalf("col %d: match %v missing", col, m)
				}
			}
		}
	}
}
