package table

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"graql/internal/value"
)

// The relational operators over (table, selection) must render byte for
// byte what the boxed, row-at-a-time composition they replaced rendered:
// groups in first-occurrence order, stable tie order, NULLs first. The
// ref* functions below are that composition — byte keys through
// Value.AppendKey, value.Compare, sort.SliceStable — kept as the oracle.

type refAgg struct {
	count      int64
	sum        float64
	sumI       int64
	min, max   value.Value
	seen, ints bool
}

func (st *refAgg) add(v value.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	switch v.Kind() {
	case value.KindInt:
		st.sumI += v.Int()
		st.sum += float64(v.Int())
		if !st.seen {
			st.ints = true
		}
	case value.KindFloat:
		st.sum += v.Float()
		st.ints = false
	}
	if !st.seen {
		st.min, st.max, st.seen = v, v, true
		return
	}
	if c, _ := value.Compare(v, st.min); c < 0 {
		st.min = v
	}
	if c, _ := value.Compare(v, st.max); c > 0 {
		st.max = v
	}
}

func (st *refAgg) result(f AggFunc, in value.Kind) value.Value {
	switch {
	case f == AggCount:
		return value.NewInt(st.count)
	case f == AggAvg && st.count > 0:
		return value.NewFloat(st.sum / float64(st.count))
	case f == AggAvg:
		return value.NewNull(value.KindFloat)
	case !st.seen && f == AggSum && in != value.KindFloat:
		return value.NewNull(value.KindInt)
	case !st.seen:
		return value.NewNull(in)
	case f == AggSum && st.ints:
		return value.NewInt(st.sumI)
	case f == AggSum:
		return value.NewFloat(st.sum)
	case f == AggMin:
		return st.min
	}
	return st.max
}

func refGroupBy(t *Table, rows []uint32, keyCols []int, aggs []AggSpec) *Table {
	type group struct {
		first  uint32
		states []refAgg
	}
	groups := map[string]*group{}
	var order []*group
	var key []byte
	for _, r := range rows {
		key = t.KeyOf(key[:0], r, keyCols)
		g, ok := groups[string(key)]
		if !ok {
			g = &group{first: r, states: make([]refAgg, len(aggs))}
			groups[string(key)] = g
			order = append(order, g)
		}
		for i, a := range aggs {
			switch {
			case a.Col < 0:
				g.states[i].add(value.NewInt(1))
			default:
				g.states[i].add(t.Value(r, a.Col))
			}
		}
	}
	if len(keyCols) == 0 && len(order) == 0 {
		order = append(order, &group{states: make([]refAgg, len(aggs))})
	}
	out := MustNew("G", groupOutSchema(t, keyCols, aggs))
	for _, g := range order {
		var row []value.Value
		for _, c := range keyCols {
			row = append(row, t.Value(g.first, c))
		}
		for i, a := range aggs {
			in := value.KindInt
			if a.Col >= 0 {
				in = t.Col(a.Col).Kind()
			}
			row = append(row, g.states[i].result(a.Func, in))
		}
		if err := out.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return out
}

func refDistinct(t *Table, rows []uint32, cols []int) []uint32 {
	seen := map[string]bool{}
	var out []uint32
	var key []byte
	for _, r := range rows {
		key = t.KeyOf(key[:0], r, cols)
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, r)
		}
	}
	return out
}

func refOrderBy(t *Table, rows []uint32, keys []SortKey) []uint32 {
	out := append([]uint32{}, rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range keys {
			c, _ := value.Compare(t.Value(out[a], k.Col), t.Value(out[b], k.Col))
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// render prints a table as text; two tables are equal when this is.
func render(t *Table) string {
	var b strings.Builder
	for _, cd := range t.Schema() {
		fmt.Fprintf(&b, "%s:%s|", cd.Name, cd.Type)
	}
	for r := uint32(0); r < uint32(t.NumRows()); r++ {
		b.WriteByte('\n')
		for c := 0; c < t.NumCols(); c++ {
			v := t.Value(r, c)
			if v.Kind() == value.KindFloat && !v.IsNull() && v.Float() == 0 && math.Signbit(v.Float()) {
				b.WriteString("-0|") // %g drops the sign; keep it visible
				continue
			}
			b.WriteString(v.String() + "|")
		}
	}
	return b.String()
}

func randCols(r *rand.Rand, n, max int) []int {
	cols := make([]int, 1+r.Intn(max))
	for i := range cols {
		cols[i] = r.Intn(n)
	}
	return cols
}

func TestOperatorsMatchBoxedReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	par := Par{Workers: 4, Threshold: 1}
	for trial := 0; trial < 300; trial++ {
		tb := propTable(r, r.Intn(120))
		n := tb.NumCols()
		// The input is every row, or a random ascending selection.
		in, rows := AllRows(tb), make([]uint32, tb.NumRows())
		for i := range rows {
			rows[i] = uint32(i)
		}
		if r.Intn(2) == 0 {
			rows = rows[:0]
			for i := 0; i < tb.NumRows(); i++ {
				if r.Intn(3) != 0 {
					rows = append(rows, uint32(i))
				}
			}
			in = Rows{t: tb, idx: rows}
		}
		what := fmt.Sprintf("trial %d (%d of %d rows)", trial, len(rows), tb.NumRows())

		keyCols := r.Perm(n)[:r.Intn(min(n, 3)+1)] // no keys: a global aggregate
		var aggs []AggSpec
		for i, k := 0, 1+r.Intn(4); i < k; i++ {
			a := AggSpec{Func: AggFunc(r.Intn(5)), Col: r.Intn(n), Name: fmt.Sprintf("a%d", i)}
			if numeric := tb.Col(a.Col).Kind().Numeric(); !numeric && (a.Func == AggSum || a.Func == AggAvg) {
				a.Func = AggMin
			}
			if a.Func == AggCount && r.Intn(2) == 0 {
				a.Col = -1
			}
			aggs = append(aggs, a)
		}
		got, err := in.GroupBy("G", keyCols, aggs)
		if err != nil {
			t.Fatalf("%s: group by %v %v: %v", what, keyCols, aggs, err)
		}
		if want := render(refGroupBy(tb, rows, keyCols, aggs)); render(got) != want {
			t.Fatalf("%s: group by %v %v:\n%s\nreference:\n%s", what, keyCols, aggs, render(got), want)
		}

		dcols := randCols(r, n, 3)
		if r.Intn(4) == 0 {
			dcols = nil
		}
		all := dcols
		if all == nil {
			for c := 0; c < n; c++ {
				all = append(all, c)
			}
		}
		want := render(tb.Gather("D", refDistinct(tb, rows, all)))
		if got := render(in.Distinct(dcols).Materialize("D", nil, nil)); got != want {
			t.Fatalf("%s: distinct %v:\n%s\nreference:\n%s", what, dcols, got, want)
		}

		var keys []SortKey
		for _, c := range randCols(r, n, 3) {
			keys = append(keys, SortKey{Col: c, Desc: r.Intn(2) == 0})
		}
		sorted := refOrderBy(tb, rows, keys)
		for _, top := range []int{0, 1, 1 + r.Intn(10), len(rows), len(rows) + 3} {
			wantRows := sorted
			if top > 0 && top < len(sorted) {
				wantRows = sorted[:top]
			}
			want := render(tb.Gather("S", wantRows))
			for _, p := range []Par{{}, par} {
				ordered, err := in.OrderBy(keys, top, p)
				if err != nil {
					t.Fatal(err)
				}
				if top > 0 {
					ordered = ordered.Top(top)
				}
				if got := render(ordered.Materialize("S", nil, nil)); got != want {
					t.Fatalf("%s: order by %v top %d (workers %d):\n%s\nreference:\n%s", what, keys, top, p.Workers, got, want)
				}
			}
		}
	}
}

// TestSignedZeroIsOneKey is the regression for Compare(0.0, -0.0) == 0 but
// distinct keys: the two zeros must share a group, a distinct row and a
// join partner.
func TestSignedZeroIsOneKey(t *testing.T) {
	tb := MustNew("Z", Schema{{Name: "f", Type: value.Float}})
	for _, f := range []float64{0, math.Copysign(0, -1), 1, math.Copysign(0, -1)} {
		if err := tb.AppendRow([]value.Value{value.NewFloat(f)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := Distinct(tb, nil); d.NumRows() != 2 {
		t.Errorf("distinct over {0, -0, 1, -0} = %d rows, want 2", d.NumRows())
	}
	g, err := GroupBy(tb, "G", []int{0}, []AggSpec{{Func: AggCount, Col: -1, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 || g.Value(0, 1).Int() != 3 {
		t.Errorf("group by over {0, -0, 1, -0}: %s", render(g))
	}
	if l, _ := HashJoinIdx(tb, tb, []int{0}, []int{0}); len(l) != 3*3+1 {
		t.Errorf("self-join over {0, -0, 1, -0} = %d pairs, want 10", len(l))
	}
	pos, neg := value.NewFloat(0).AppendKey(nil), value.NewFloat(math.Copysign(0, -1)).AppendKey(nil)
	if string(pos) != string(neg) {
		t.Errorf("AppendKey(0) = %x, AppendKey(-0) = %x", pos, neg)
	}
}

// TestGatherSharesDictionary: gathered, cloned and patched varchar columns
// share the source's dictionary and its index without re-hashing, find
// every string of it in O(1), and appending to any side never shows
// through to another.
func TestGatherSharesDictionary(t *testing.T) {
	src := MustNew("S", Schema{{Name: "s", Type: value.Varchar(8)}})
	for _, s := range []string{"a", "b", "a", "c"} {
		if err := src.AppendRow([]value.Value{value.NewString(s)}); err != nil {
			t.Fatal(err)
		}
	}
	sc := src.Col(0).(*stringColumn)
	g := src.Gather("G", []uint32{3, 0})
	gc := g.Col(0).(*stringColumn)
	if gc.index != sc.index || unsafe.StringData(gc.dict.at(0)) != unsafe.StringData(sc.dict.at(0)) {
		t.Fatal("gather must share the dictionary and its index")
	}
	if got := g.Col(0).Distinct(); got != 3 {
		t.Errorf("Distinct() of a gathered column = %d, want the source's 3 as an upper bound", got)
	}
	clone := src.Clone()
	patched, err := src.Patch([]int{0}, []uint32{1}, [][]value.Value{{value.NewString("c")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{g, clone, patched} {
		c := tb.Col(0).(*stringColumn)
		for want, s := range []string{"a", "b", "c"} {
			if code, ok := c.codeOf(s); !ok || code != uint32(want) {
				t.Errorf("%s: codeOf(%q) = %d, %v; want %d", tb.Name, s, code, ok, want)
			}
		}
		if _, ok := c.codeOf("d"); ok {
			t.Errorf("%s: codeOf finds a string nobody added", tb.Name)
		}
	}
	for i, tb := range []*Table{g, clone, src} {
		// Each appends a string the others do not have, and one they do.
		for _, s := range []string{fmt.Sprintf("new%d", i), "b"} {
			if err := tb.AppendRow([]value.Value{value.NewString(s)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		tb   *Table
		want string
	}{{src, "a b a c new2 b"}, {g, "c a new0 b"}, {clone, "a b a c new1 b"}} {
		var cells []string
		for r := uint32(0); r < uint32(c.tb.NumRows()); r++ {
			cells = append(cells, c.tb.Value(r, 0).String())
		}
		if got := strings.Join(cells, " "); got != c.want {
			t.Errorf("%s holds %q, want %q", c.tb.Name, got, c.want)
		}
		if sc := c.tb.Col(0).(*stringColumn); sc.dict.len() != 4 {
			t.Errorf("%s: dictionary %v, want 4 entries (no duplicate of b)", c.tb.Name, sc.dict.entries())
		}
	}
	// Each side finds the string it appended after the split, and no other.
	for i, tb := range []*Table{g, clone, src} {
		c := tb.Col(0).(*stringColumn)
		for j := range 3 {
			code, ok := c.codeOf(fmt.Sprintf("new%d", j))
			if ok != (i == j) || ok && code != 3 {
				t.Errorf("%s: codeOf(new%d) = %d, %v", tb.Name, j, code, ok)
			}
		}
	}
	if _, ok := patched.Col(0).(*stringColumn).codeOf("new2"); ok {
		t.Error("a patched version sees a string its source appended later")
	}
	if err := clone.AppendRow([]value.Value{value.NewString("far too long")}); err == nil {
		t.Error("a clone must keep enforcing varchar(8)")
	}
}

// TestNullMask: NULLs are tracked on a bitmap, reported by IsNull without
// boxing, and survive gather and clone.
func TestNullMask(t *testing.T) {
	tb := propTable(rand.New(rand.NewSource(5)), 300)
	idx := []uint32{299, 0, 7, 7, 150}
	g, c := tb.Gather("G", idx), tb.Clone()
	for col := 0; col < tb.NumCols(); col++ {
		for r := uint32(0); r < 300; r++ {
			if tb.Col(col).IsNull(r) != tb.Value(r, col).IsNull() || c.Col(col).IsNull(r) != tb.Col(col).IsNull(r) {
				t.Fatalf("column %d row %d: IsNull disagrees with Value", col, r)
			}
		}
		for j, r := range idx {
			if g.Col(col).IsNull(uint32(j)) != tb.Col(col).IsNull(r) {
				t.Fatalf("column %d: gathered row %d lost its NULL flag", col, j)
			}
		}
	}
}
