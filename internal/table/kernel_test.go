package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graql/internal/expr"
	"graql/internal/value"
)

// The contract of the compiled filter (DESIGN.md §16): for every table and
// every resolved predicate — well-typed or not — CompileFilter(t, e).Select
// returns exactly the rows on which e.Eval is TRUE, row for row, or exactly
// the error of the first row on which e.Eval fails. The reference below is
// the row-at-a-time evaluator the kernels replaced.

var propKinds = []value.Type{value.Bool, value.Int, value.Float, value.Varchar(8), value.Date}

// propTable builds a table of 1–6 columns of random kinds, about half of
// them with a NULL one row in six and the rest with none (so both the
// NULL-free loops and the NULL passes run), small value domains (so
// equalities and ties happen) and the float corner cases: both zeros and
// NaN. One table in four is cut from a longer one whose extra rows hold
// 4·rows+64 more strings, so its varchar dictionaries outnumber its rows
// and group ids take the hash arm of denseIDs.
func propTable(r *rand.Rand, rows int) *Table {
	var schema Schema
	var nullEvery []int
	for c, n := 0, 1+r.Intn(6); c < n; c++ {
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("c%d", c), Type: propKinds[r.Intn(len(propKinds))]})
		nullEvery = append(nullEvery, []int{0, 6}[r.Intn(2)])
	}
	extra := 0
	if r.Intn(4) == 0 {
		extra = 4*rows + 64
	}
	tb := MustNew("P", schema)
	row := make([]value.Value, len(schema))
	for i := 0; i < rows+extra; i++ {
		for c, cd := range schema {
			row[c] = propValue(r, cd.Type.Kind, nullEvery[c])
			if i >= rows && cd.Type.Kind == value.KindString {
				row[c] = value.NewString(fmt.Sprintf("x%d", i))
			}
		}
		if err := tb.AppendRow(row); err != nil {
			panic(err)
		}
	}
	if extra == 0 {
		return tb
	}
	idx := make([]uint32, rows)
	for i := range idx {
		idx[i] = uint32(i)
	}
	return tb.Gather("P", idx)
}

// propValue draws a value of the kind, NULL one time in nullEvery (never
// when nullEvery is 0).
func propValue(r *rand.Rand, k value.Kind, nullEvery int) value.Value {
	if nullEvery > 0 && r.Intn(nullEvery) == 0 {
		return value.NewNull(k)
	}
	switch k {
	case value.KindBool:
		return value.NewBool(r.Intn(2) == 0)
	case value.KindInt:
		return value.NewInt(int64(r.Intn(9)) - 4) // zero divisors happen
	case value.KindFloat:
		return value.NewFloat([]float64{0, math.Copysign(0, -1), math.NaN(), -1.5, 0.5, 2, 2.5, 3}[r.Intn(8)])
	case value.KindString:
		return value.NewString([]string{"", "a", "ab", "b", "graql"}[r.Intn(5)])
	default:
		return value.NewDate(int64(r.Intn(6)) * 100)
	}
}

// predGen draws predicates over one table's columns.
type predGen struct {
	r  *rand.Rand
	tb *Table
}

func (g predGen) ref(col int) *expr.Ref {
	return &expr.Ref{Name: g.tb.schema[col].Name, Source: 0, Col: col}
}

// colOf returns a random column of kind k, or -1.
func (g predGen) colOf(k value.Kind) int {
	var cols []int
	for c, cd := range g.tb.schema {
		if cd.Type.Kind == k {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		return -1
	}
	return cols[g.r.Intn(len(cols))]
}

// operand is a column of kind k when one exists (three times in four), else
// a constant of that kind.
func (g predGen) operand(k value.Kind) expr.Expr {
	if c := g.colOf(k); c >= 0 && g.r.Intn(4) != 0 {
		return g.ref(c)
	}
	return expr.NewConst(propValue(g.r, k, 8))
}

var cmpOps = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// anyExpr is a uniformly random tree: mostly ill-typed.
func (g predGen) anyExpr(depth int) expr.Expr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return g.ref(g.r.Intn(len(g.tb.schema)))
		}
		return expr.NewConst(propValue(g.r, propKinds[g.r.Intn(len(propKinds))].Kind, 5))
	}
	switch g.r.Intn(8) {
	case 0:
		return &expr.Unary{Op: expr.OpNot, X: g.anyExpr(depth - 1)}
	case 1:
		return &expr.Unary{Op: expr.OpNeg, X: g.anyExpr(depth - 1)}
	}
	ops := append([]expr.Op{expr.OpAnd, expr.OpOr, expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod}, cmpOps...)
	return expr.NewBinary(ops[g.r.Intn(len(ops))], g.anyExpr(depth-1), g.anyExpr(depth-1))
}

// arith is numeric arithmetic over int and float operands: the generic
// leaf's staple, with division by zero among its outcomes.
func (g predGen) arith(depth int) expr.Expr {
	k := []value.Kind{value.KindInt, value.KindFloat}[g.r.Intn(2)]
	if depth <= 0 || g.r.Intn(3) == 0 {
		return g.operand(k)
	}
	if g.r.Intn(6) == 0 {
		return &expr.Unary{Op: expr.OpNeg, X: g.arith(depth - 1)}
	}
	ops := []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod}
	return expr.NewBinary(ops[g.r.Intn(len(ops))], g.arith(depth-1), g.arith(depth-1))
}

// cmp is a comparison: usually between a column and a constant or column
// of its kind, sometimes across kinds or over arithmetic.
func (g predGen) cmp() expr.Expr {
	op := cmpOps[g.r.Intn(len(cmpOps))]
	k := propKinds[g.r.Intn(len(propKinds))].Kind
	switch roll := g.r.Intn(20); {
	case roll < 11:
		l, r := g.operand(k), expr.Expr(expr.NewConst(propValue(g.r, k, 8)))
		if g.r.Intn(5) == 0 {
			l, r = r, l
		}
		return expr.NewBinary(op, l, r)
	case roll < 14:
		return expr.NewBinary(op, g.operand(k), g.operand(k))
	case roll < 16:
		return expr.NewBinary(op, g.operand(value.KindInt), g.operand(value.KindFloat))
	case roll < 18:
		return expr.NewBinary(op, g.arith(2), g.arith(1))
	}
	return expr.NewBinary(op, g.anyExpr(1), g.anyExpr(1))
}

// pred is a predicate: comparisons under and/or/not, boolean leaves, and
// now and then an arbitrary tree as an operand or as the root.
func (g predGen) pred(depth int) expr.Expr {
	if depth <= 0 {
		return g.cmp()
	}
	switch roll := g.r.Intn(20); {
	case roll < 7:
		return g.cmp()
	case roll < 11:
		return expr.NewBinary(expr.OpAnd, g.pred(depth-1), g.pred(depth-1))
	case roll < 14:
		return expr.NewBinary(expr.OpOr, g.pred(depth-1), g.pred(depth-1))
	case roll < 17:
		return &expr.Unary{Op: expr.OpNot, X: g.pred(depth - 1)}
	case roll < 19:
		return g.operand(value.KindBool)
	}
	return g.anyExpr(2)
}

// refSelect is the reference: Expr.Eval row by row over in, a NULL
// condition not satisfied, the first failing row's error returned.
func refSelect(in Rows, e expr.Expr) ([]uint32, error) {
	env := &rowEnv{t: in.t}
	var out []uint32
	for i, n := 0, in.Len(); i < n; i++ {
		env.row = in.At(i)
		v, err := e.Eval(env)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Bool() {
			out = append(out, env.row)
		}
	}
	return out, nil
}

// thinned is the ascending selection of tb's rows r with bit r%8 of mask set.
func thinned(tb *Table, mask uint8) Rows {
	idx := []uint32{}
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		if mask>>(r%8)&1 != 0 {
			idx = append(idx, r)
		}
	}
	return RowsOf(tb, idx)
}

// sameError: both nil, or the same message and — for type errors — the
// same *value.TypeError.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ta, tb *value.TypeError
	if errors.As(a, &ta) != errors.As(b, &tb) || (ta != nil && *ta != *tb) {
		return false
	}
	return a.Error() == b.Error()
}

// checkFilter asserts kernel ≡ reference for one predicate over in — every
// row of the table or an ascending selection of them — serially and on four
// workers, and reports (selected any row, failed, kernelised root).
func checkFilter(t *testing.T, in Rows, e expr.Expr) (selected, failed, typed bool) {
	t.Helper()
	want, wantErr := refSelect(in, e)
	f := CompileFilter(in.t, e)
	for _, p := range []Par{{}, {Workers: 4, Threshold: 1}} {
		got, err := f.Select(in, p)
		if !sameError(err, wantErr) {
			t.Fatalf("%s over %d rows (workers %d): error %v, reference %v", e, in.Len(), p.Workers, err, wantErr)
		}
		if err == nil && !slices.Equal(got.span().minus(nil), append([]uint32{}, want...)) {
			t.Fatalf("%s over %d rows (workers %d):\nkernel    %v\nreference %v", e, in.Len(), p.Workers, got.idx, want)
		}
	}
	return len(want) > 0, wantErr != nil, f.root.kind != expr.KernelGeneric
}

func TestFilterKernelMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var trees, selected, failed, typed int
	for trial := 0; trial < 120; trial++ {
		rows := r.Intn(60)
		if trial%20 == 0 {
			rows = 2*morselSize + r.Intn(morselSize) // several morsels
		}
		tb := propTable(r, rows)
		g := predGen{r: r, tb: tb}
		for i := 0; i < 60; i++ {
			in := AllRows(tb)
			if i%3 == 2 { // an ascending selection, as a graph step's frontier is
				in = thinned(tb, uint8(r.Intn(256)))
			}
			s, f, k := checkFilter(t, in, g.pred(3))
			trees++
			selected += b2i(s)
			failed += b2i(f)
			typed += b2i(k)
		}
	}
	// A generator drifting towards all-failing or all-generic trees would
	// pass vacuously.
	if selected < trees/5 || failed < trees/20 || typed < trees/3 {
		t.Fatalf("corpus too thin: %d trees, %d select a row, %d fail, %d have a typed root", trees, selected, failed, typed)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzFilterKernel drives the same property from fuzzed seeds: one seed
// shapes the table, the other the predicate, and mask thins the rows into
// an ascending selection that is run next to the dense range.
func FuzzFilterKernel(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(40), uint8(0b10110101))
	f.Add(int64(42), int64(43), uint8(0), uint8(0xff))
	f.Add(int64(-7), int64(1<<40), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, tableSeed, predSeed int64, rows, mask uint8) {
		tb := propTable(rand.New(rand.NewSource(tableSeed)), int(rows))
		g := predGen{r: rand.New(rand.NewSource(predSeed)), tb: tb}
		for i := 0; i < 8; i++ {
			e := g.pred(4)
			checkFilter(t, AllRows(tb), e)
			checkFilter(t, thinned(tb, mask), e)
		}
	})
}

// TestFilterKernelShapes pins which predicates kernelise and which fall to
// the generic leaf (DESIGN.md §16).
func TestFilterKernelShapes(t *testing.T) {
	tb := MustNew("S", Schema{
		{Name: "b", Type: value.Bool}, {Name: "i", Type: value.Int}, {Name: "f", Type: value.Float},
		{Name: "s", Type: value.Text}, {Name: "d", Type: value.Date},
	})
	ref := func(c int) expr.Expr { return &expr.Ref{Source: 0, Col: c} }
	lit := func(v value.Value) expr.Expr { return expr.NewConst(v) }
	add := func(l, r expr.Expr) expr.Expr { return expr.NewBinary(expr.OpAdd, l, r) }
	not := func(x expr.Expr) expr.Expr { return &expr.Unary{Op: expr.OpNot, X: x} }
	cases := []struct {
		e    expr.Expr
		want expr.KernelKind
	}{
		// Typed kernels: one kind on both sides, or a widened constant.
		{expr.NewBinary(expr.OpGe, ref(1), lit(value.NewInt(3))), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpLt, lit(value.NewInt(3)), ref(1)), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpLt, ref(2), lit(value.NewInt(3))), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpLt, ref(2), lit(value.NewFloat(math.NaN()))), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpLt, ref(3), lit(value.NewString("m"))), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpGt, ref(4), lit(value.NewDate(9))), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpEq, ref(0), lit(value.NewBool(true))), expr.KernelCmpConst},
		{expr.NewBinary(expr.OpNe, ref(3), ref(3)), expr.KernelCmpCols},
		{expr.NewBinary(expr.OpLe, ref(1), ref(1)), expr.KernelCmpCols},
		{ref(0), expr.KernelBoolCol},
		{lit(value.NewNull(value.KindBool)), expr.KernelConst},
		// A comparison with a NULL constant is NULL whatever the kinds.
		{expr.NewBinary(expr.OpEq, ref(1), lit(value.NewNull(value.KindInt))), expr.KernelConst},
		{expr.NewBinary(expr.OpEq, lit(value.NewNull(value.KindFloat)), ref(3)), expr.KernelConst},
		// Connectives over boolean-valued operands, generic leaves included.
		{not(ref(0)), expr.KernelNot},
		{expr.NewBinary(expr.OpOr, ref(0), expr.NewBinary(expr.OpLe, ref(4), lit(value.NewDate(1)))), expr.KernelOr},
		{expr.NewBinary(expr.OpAnd, ref(0), expr.NewBinary(expr.OpLe, ref(1), lit(value.NewFloat(1)))), expr.KernelAnd},
		{not(expr.NewBinary(expr.OpLe, ref(1), lit(value.NewString("x")))), expr.KernelNot},
		{expr.NewBinary(expr.OpAnd, lit(value.NewNull(value.KindBool)), lit(value.NewBool(true))), expr.KernelAnd},
		// The generic leaf: cross-kind, ill-typed, arithmetic, unresolved.
		{expr.NewBinary(expr.OpLt, ref(1), lit(value.NewFloat(2.5))), expr.KernelGeneric},
		{expr.NewBinary(expr.OpLt, ref(1), ref(2)), expr.KernelGeneric},
		{expr.NewBinary(expr.OpEq, ref(4), lit(value.NewFloat(1))), expr.KernelGeneric},
		{expr.NewBinary(expr.OpEq, ref(0), ref(0)), expr.KernelGeneric},
		{expr.NewBinary(expr.OpGt, add(ref(1), ref(1)), lit(value.NewInt(1))), expr.KernelGeneric},
		{expr.NewBinary(expr.OpEq, lit(value.NewInt(1)), lit(value.NewInt(1))), expr.KernelGeneric},
		{expr.NewBinary(expr.OpGe, ref(9), lit(value.NewInt(3))), expr.KernelGeneric},
		{expr.NewBinary(expr.OpGe, &expr.Ref{Source: -1}, lit(value.NewInt(3))), expr.KernelGeneric},
		{expr.NewBinary(expr.OpGe, &expr.Param{Name: "p"}, lit(value.NewInt(3))), expr.KernelGeneric},
		// A connective or root that is not boolean-valued fails in Eval.
		{expr.NewBinary(expr.OpAnd, ref(1), ref(0)), expr.KernelGeneric},
		{expr.NewBinary(expr.OpOr, lit(value.NewNull(value.KindInt)), ref(0)), expr.KernelGeneric},
		{not(ref(1)), expr.KernelGeneric},
		{not(add(ref(1), ref(1))), expr.KernelGeneric},
		{lit(value.NewInt(7)), expr.KernelGeneric},
	}
	for _, c := range cases {
		if got := CompileFilter(tb, c.e).root.kind; got != c.want {
			t.Errorf("%s: kernel kind %d, want %d", c.e, got, c.want)
		}
	}
}

// TestFilterSelectStitchesMorsels: a filter over several morsels returns
// one ascending selection, identical serially and in parallel.
func TestFilterSelectStitchesMorsels(t *testing.T) {
	tb := MustNew("M", Schema{{Name: "n", Type: value.Int}})
	for i := 0; i < 3*morselSize+17; i++ {
		if err := tb.AppendRow([]value.Value{value.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	e := expr.NewBinary(expr.OpEq, &expr.Ref{Source: 0, Col: 0}, expr.NewConst(value.NewInt(3)))
	serial, err := CompileFilter(tb, e).Select(AllRows(tb), Par{})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	par, err := CompileFilter(tb, e).Select(AllRows(tb), Par{Workers: 3, Threshold: 1, OnParallel: func(int, int) func() { fired = true; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !fired || serial.Len() != (3*morselSize+17+3)/7 || !reflect.DeepEqual(serial.idx, par.idx) || !slices.IsSorted(par.idx) {
		t.Fatalf("parallel fired=%v, %d serial rows, %d parallel rows", fired, serial.Len(), par.Len())
	}
	boom := errors.New("stop")
	if _, err := CompileFilter(tb, e).Select(AllRows(tb), Par{Poll: func() error { return boom }}); !errors.Is(err, boom) {
		t.Fatalf("a failing poll must abort the serial scan, got %v", err)
	}
}
