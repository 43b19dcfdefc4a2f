package table

import (
	"cmp"
	"math"
	"slices"

	"graql/internal/bitmap"
	"graql/internal/expr"
	"graql/internal/value"
)

// This file runs compiled predicates (expr.CompileKernel) over raw column
// slices. A kernel reads a span of row ids — a dense range or an ascending
// selection vector — and returns the ascending ids on which its predicate
// is TRUE and, on request, those on which it is NULL; the rest are FALSE.
// `and` chains selections, `or`/`not` combine them by Kleene rules, and a
// generic leaf calls Expr.Eval for whatever has no typed kernel, on exactly
// the rows the row-at-a-time evaluator would have evaluated it on, so the
// first failing row and its error are the reference's.

// span is the input of one kernel: the ascending row ids sel, or the dense
// range [lo, hi) when sel is nil.
type span struct {
	sel    []uint32
	lo, hi uint32
}

func (s span) len() int {
	if s.sel != nil {
		return len(s.sel)
	}
	return int(s.hi - s.lo)
}

func (s span) at(i int) uint32 {
	if s.sel != nil {
		return s.sel[i]
	}
	return s.lo + uint32(i)
}

// slice returns the i-th to j-th rows of s.
func (s span) slice(i, j int) span {
	if s.sel != nil {
		return span{sel: s.sel[i:j]}
	}
	return span{lo: s.lo + uint32(i), hi: s.lo + uint32(j)}
}

// minus returns the rows of s that are not in a, an ascending subset of s.
func (s span) minus(a []uint32) []uint32 {
	out := make([]uint32, 0, s.len()-len(a))
	for i, n := 0, s.len(); i < n; i++ {
		r := s.at(i)
		if len(a) > 0 && a[0] == r {
			a = a[1:]
			continue
		}
		out = append(out, r)
	}
	return out
}

// union, inter and diff are the set operations on ascending row-id lists.
func union(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func inter(a, b []uint32) []uint32 {
	var out []uint32
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return out
}

func diff(a, b []uint32) []uint32 {
	if len(b) == 0 {
		return a
	}
	return span{sel: a}.minus(inter(a, b))
}

// evalCtx carries one evaluation's failure: the lowest failing row and its
// error, which is what a row-at-a-time scan would have returned.
type evalCtx struct {
	t      *Table
	err    error
	errRow uint32
}

func (cx *evalCtx) fail(row uint32, err error) {
	if cx.err == nil || row < cx.errRow {
		cx.err, cx.errRow = err, row
	}
}

// rowEnv resolves every reference against one row of one table.
type rowEnv struct {
	t   *Table
	row uint32
}

func (e *rowEnv) Lookup(_, col int) value.Value { return e.t.cols[col].Value(e.row) }

// kernel is one bound node of a compiled predicate.
type kernel struct {
	kind  expr.KernelKind
	l, r  *kernel
	truth value.Value // KernelConst
	e     expr.Expr   // KernelGeneric
	// mayFail: the node contains a generic leaf, so it must see every row
	// the row-at-a-time evaluator would have evaluated it on.
	mayFail bool
	// Typed leaves: match writes the rows of in on which the comparison
	// holds to out and returns them (see selConst); operands are the
	// columns whose NULL rows make it NULL.
	match    func(in span, out []uint32) []uint32
	operands []Column
}

// cmpMask encodes a comparison operator as the set of three-way results
// that satisfy it: bit c+1 is set when a compare result c does.
func cmpMask(op expr.Op) uint8 {
	switch op {
	case expr.OpLt:
		return 0b001
	case expr.OpEq:
		return 0b010
	case expr.OpGt:
		return 0b100
	case expr.OpLe:
		return 0b011
	case expr.OpGe:
		return 0b110
	case expr.OpNe:
		return 0b101
	}
	return 0
}

func holds(mask uint8, c int) bool { return mask>>uint(c+1)&1 != 0 }

// bit is 1 for true and 0 for false. The compiler emits no branch for it,
// so a selection loop writes every row and advances past the kept ones.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// split reduces a comparison to ==, > or >= and a negation: != is not ==,
// <= is not >, < is not >=. Under cmp.Compare's order (NaN first, -0 =
// +0) this also holds for a float column against a constant that is not
// NaN: a NaN row fails all three tests, so it passes their negations, as
// the least value should.
func split(op expr.Op) (expr.Op, bool) {
	switch op {
	case expr.OpNe:
		return expr.OpEq, true
	case expr.OpLe:
		return expr.OpGt, true
	case expr.OpLt:
		return expr.OpGe, true
	}
	return op, false
}

// selConst writes to out the rows r of in with data[r] <op> c, op being
// ==, > or >=, negated when neg, and returns them. Every loop of a typed
// leaf keeps this contract: out has room for every row of in, and is
// either disjoint from in.sel or in.sel itself, which it then narrows in
// place, since a row is read before the slot it may move to is written.
func selConst[T int64 | float64 | uint32](data []T, c T, op expr.Op, neg bool, in span, out []uint32) []uint32 {
	k := 0
	if in.sel != nil {
		switch op {
		case expr.OpEq:
			for _, r := range in.sel {
				out[k], k = r, k+bit((data[r] == c) != neg)
			}
		case expr.OpGt:
			for _, r := range in.sel {
				out[k], k = r, k+bit((data[r] > c) != neg)
			}
		case expr.OpGe:
			for _, r := range in.sel {
				out[k], k = r, k+bit((data[r] >= c) != neg)
			}
		}
		return out[:k]
	}
	switch lo := in.lo; op {
	case expr.OpEq:
		for i, x := range data[lo:in.hi] {
			out[k], k = lo+uint32(i), k+bit((x == c) != neg)
		}
	case expr.OpGt:
		for i, x := range data[lo:in.hi] {
			out[k], k = lo+uint32(i), k+bit((x > c) != neg)
		}
	case expr.OpGe:
		for i, x := range data[lo:in.hi] {
			out[k], k = lo+uint32(i), k+bit((x >= c) != neg)
		}
	}
	return out[:k]
}

// selCols is selConst for a[r] <op> b[r], over integers and dates.
func selCols(a, b []int64, op expr.Op, neg bool, in span, out []uint32) []uint32 {
	k := 0
	if in.sel != nil {
		switch op {
		case expr.OpEq:
			for _, r := range in.sel {
				out[k], k = r, k+bit((a[r] == b[r]) != neg)
			}
		case expr.OpGt:
			for _, r := range in.sel {
				out[k], k = r, k+bit((a[r] > b[r]) != neg)
			}
		case expr.OpGe:
			for _, r := range in.sel {
				out[k], k = r, k+bit((a[r] >= b[r]) != neg)
			}
		}
		return out[:k]
	}
	lo, b := in.lo, b[in.lo:in.hi]
	switch a := a[lo:in.hi]; op {
	case expr.OpEq:
		for i := range a {
			out[k], k = lo+uint32(i), k+bit((a[i] == b[i]) != neg)
		}
	case expr.OpGt:
		for i := range a {
			out[k], k = lo+uint32(i), k+bit((a[i] > b[i]) != neg)
		}
	case expr.OpGe:
		for i := range a {
			out[k], k = lo+uint32(i), k+bit((a[i] >= b[i]) != neg)
		}
	}
	return out[:k]
}

// selectRows is the loop of the leaves with no operator-specialised form:
// it writes to out the rows r of in with keep(r), under selConst's contract.
func selectRows(in span, out []uint32, keep func(r uint32) bool) []uint32 {
	k := 0
	for i, n := 0, in.len(); i < n; i++ {
		r := in.at(i)
		out[k], k = r, k+bit(keep(r))
	}
	return out[:k]
}

// nullsIn reports whether nulls may mark a row of in, whose rows ascend:
// it looks at the words that cover them, and answers yes unread when those
// outnumber the rows, as for a sparse selection over a long column.
func nullsIn(nulls bitmap.Mask, in span) bool {
	n := in.len()
	if n == 0 {
		return false
	}
	lo, hi := int(in.at(0)/64), min(int(in.at(n-1)/64)+1, len(nulls))
	if hi-lo > n {
		return true
	}
	return lo < hi && slices.ContainsFunc(nulls[lo:hi], func(w uint64) bool { return w != 0 })
}

// dropNulls narrows sel, rows of in, in place to those non-NULL in nulls.
// A column with no NULL among in's rows skips the pass.
func dropNulls(nulls bitmap.Mask, in span, sel []uint32) []uint32 {
	if !nullsIn(nulls, in) {
		return sel
	}
	k := 0
	for _, r := range sel {
		sel[k], k = r, k+bit(!nulls.Get(r))
	}
	return sel[:k]
}

// bind attaches compiled node k to t's columns. A comparison or boolean
// column whose representation has no typed kernel becomes a generic leaf
// over the expression it was compiled from.
func (t *Table) bind(k *expr.Kernel) *kernel {
	out := &kernel{kind: k.Kind, truth: k.Val, e: k.E}
	switch k.Kind {
	case expr.KernelConst:
		return out
	case expr.KernelAnd, expr.KernelOr:
		out.l, out.r = t.bind(k.L), t.bind(k.R)
		out.mayFail = out.l.mayFail || out.r.mayFail
		return out
	case expr.KernelNot:
		out.l = t.bind(k.L)
		out.mayFail = out.l.mayFail
		return out
	case expr.KernelBoolCol:
		if c, ok := t.cols[k.Col].(*boolColumn); ok {
			out.operands = []Column{c}
			out.match = func(in span, dst []uint32) []uint32 {
				return dropNulls(c.nulls, in, selectRows(in, dst, func(r uint32) bool { return c.data[r] }))
			}
		}
	case expr.KernelCmpConst:
		out.operands = []Column{t.cols[k.Col]}
		out.match = bindCmpConst(t.cols[k.Col], k.Cmp, k.Val)
	case expr.KernelCmpCols:
		out.operands = []Column{t.cols[k.Col], t.cols[k.Col2]}
		out.match = bindCmpCols(t.cols[k.Col], t.cols[k.Col2], k.Cmp)
	}
	if out.match == nil {
		out.kind, out.mayFail = expr.KernelGeneric, true
	}
	return out
}

func bindCmpConst(col Column, op expr.Op, v value.Value) func(span, []uint32) []uint32 {
	test, neg := split(op)
	mask := cmpMask(op)
	switch c := col.(type) {
	case *intColumn:
		return func(in span, out []uint32) []uint32 {
			return dropNulls(c.nulls, in, selConst(c.data, v.I, test, neg, in, out))
		}
	case *floatColumn:
		if !math.IsNaN(v.F) {
			return func(in span, out []uint32) []uint32 {
				return dropNulls(c.nulls, in, selConst(c.data, v.F, test, neg, in, out))
			}
		}
		return func(in span, out []uint32) []uint32 {
			return dropNulls(c.nulls, in, selectRows(in, out, func(r uint32) bool { return holds(mask, cmp.Compare(c.data[r], v.F)) }))
		}
	case *boolColumn:
		hit := [2]bool{holds(mask, cmp.Compare(0, v.I)), holds(mask, cmp.Compare(1, v.I))}
		return func(in span, out []uint32) []uint32 {
			return dropNulls(c.nulls, in, selectRows(in, out, func(r uint32) bool { return hit[bit(c.data[r])] }))
		}
	case *stringColumn:
		if test == expr.OpEq {
			// One dictionary lookup per statement; a string the column
			// has never seen equals no row and differs from every one.
			code, ok := c.codeOf(v.S)
			if !ok {
				code = nullCode - 1
			}
			return func(in span, out []uint32) []uint32 {
				if out = selConst(c.codes, code, expr.OpEq, neg, in, out); neg {
					out = selConst(c.codes, nullCode, expr.OpEq, true, span{sel: out}, out)
				}
				return out
			}
		}
		return func(in span, out []uint32) []uint32 {
			return selectRows(in, out, func(r uint32) bool {
				rc := c.codes[r]
				return rc != nullCode && holds(mask, cmp.Compare(c.dict.at(rc), v.S))
			})
		}
	}
	return nil
}

func bindCmpCols(a, b Column, op expr.Op) func(span, []uint32) []uint32 {
	mask := cmpMask(op)
	switch a := a.(type) {
	case *intColumn:
		if b, ok := b.(*intColumn); ok {
			test, neg := split(op)
			return func(in span, out []uint32) []uint32 {
				return dropNulls(b.nulls, in, dropNulls(a.nulls, in, selCols(a.data, b.data, test, neg, in, out)))
			}
		}
	case *floatColumn:
		// Two NaNs are equal under cmp.Compare but not under ==: the
		// three-way loop.
		if b, ok := b.(*floatColumn); ok {
			return func(in span, out []uint32) []uint32 {
				out = selectRows(in, out, func(r uint32) bool { return holds(mask, cmp.Compare(a.data[r], b.data[r])) })
				return dropNulls(b.nulls, in, dropNulls(a.nulls, in, out))
			}
		}
	case *stringColumn:
		if b, ok := b.(*stringColumn); ok {
			return func(in span, out []uint32) []uint32 {
				return selectRows(in, out, func(r uint32) bool {
					ca, cb := a.codes[r], b.codes[r]
					return ca != nullCode && cb != nullCode && holds(mask, cmp.Compare(a.dict.at(ca), b.dict.at(cb)))
				})
			}
		}
	}
	return nil
}

// eval partitions the rows of in by the node's truth value: t lists those
// on which it is TRUE and, when wantNull, n those on which it is NULL, both
// ascending. A row whose evaluation fails is reported to cx and listed in
// neither. A typed leaf, or the chain of selecting conjuncts that starts
// with one, writes t into dst when that is not nil: a buffer with room for
// every row of in that this evaluation owns — never a selection the
// caller passed in, but possibly in.sel itself.
func (k *kernel) eval(cx *evalCtx, in span, wantNull bool, dst []uint32) (t, n []uint32) {
	if in.len() == 0 {
		return nil, nil
	}
	switch k.kind {
	case expr.KernelConst:
		all := in.minus(nil)
		switch {
		case k.truth.IsNull():
			return nil, all
		case k.truth.Bool():
			return all, nil
		}
		return nil, nil

	case expr.KernelAnd:
		if !wantNull && !k.r.mayFail {
			// Selection chaining: only rows that passed the left side can
			// pass the conjunction, and the right side cannot fail on the
			// rows it is spared.
			// Every node returns rows it allocated or wrote into dst, so
			// the right side may narrow tl in place.
			tl, _ := k.l.eval(cx, in, false, dst)
			tr, _ := k.r.eval(cx, span{sel: tl}, false, tl)
			return tr, nil
		}
		// The reference evaluates the right side wherever the left is not
		// FALSE, so a failure there must surface.
		tl, nl := k.l.eval(cx, in, true, nil)
		tr, nr := k.r.eval(cx, span{sel: union(tl, nl)}, true, nil)
		t = inter(tl, tr)
		if wantNull {
			n = union(inter(tl, nr), inter(nl, union(tr, nr)))
		}
		return t, n

	case expr.KernelOr:
		tl, nl := k.l.eval(cx, in, wantNull, nil)
		tr, nr := k.r.eval(cx, span{sel: in.minus(tl)}, wantNull, nil)
		if wantNull {
			n = union(nr, diff(nl, tr))
		}
		return union(tl, tr), n

	case expr.KernelNot:
		tx, nx := k.l.eval(cx, in, true, nil)
		return in.minus(union(tx, nx)), nx

	case expr.KernelGeneric:
		env := &rowEnv{t: cx.t}
		for i, cnt := 0, in.len(); i < cnt; i++ {
			env.row = in.at(i)
			v, err := k.e.Eval(env)
			switch {
			case err != nil:
				cx.fail(env.row, err)
			case v.IsNull():
				if wantNull {
					n = append(n, env.row)
				}
			case v.Bool():
				t = append(t, env.row)
			}
		}
		return t, n
	}

	if dst == nil {
		dst = make([]uint32, in.len())
	}
	t = k.match(in, dst)
	if wantNull {
		for i, cnt := 0, in.len(); i < cnt; i++ {
			r := in.at(i)
			for _, c := range k.operands {
				if c.IsNull(r) {
					n = append(n, r)
					break
				}
			}
		}
	}
	return t, n
}

// Filter is a predicate compiled against one table.
type Filter struct {
	t    *Table
	root *kernel
}

// CompileFilter compiles pred, whose references must all resolve to
// columns of t and whose parameters must be bound, into typed kernels over
// t's columns. A row is selected when pred is TRUE on it (a NULL or FALSE
// condition is not satisfied), exactly as evaluating pred.Eval row by row
// would decide, including the error of the first failing row.
func CompileFilter(t *Table, pred expr.Expr) *Filter {
	colKind := func(col int) value.Kind {
		if col < 0 || col >= len(t.cols) {
			return value.KindInvalid
		}
		return t.cols[col].Kind()
	}
	return &Filter{t: t, root: t.bind(expr.CompileKernel(pred, colKind))}
}

// filterParThreshold is the filter's own default crossover at two
// workers (EXPERIMENTS.md E29): its typed loops take a few nanoseconds a
// row, so below 64k rows a morsel costs less than handing it over.
const filterParThreshold = 16 * morselSize

// Select runs the filter over in, rows of its table in ascending order,
// morsel by morsel — on p's workers when in clears p's threshold (when
// unset, filterParThreshold) and spans more than one morsel — and returns
// the selected rows in ascending order. Each morsel selects into its own
// stretch of one buffer, and the stretches are then moved down into one
// run.
func (f *Filter) Select(in Rows, p Par) (Rows, error) {
	if p.Threshold <= 0 {
		p.Threshold = filterParThreshold
	}
	s := in.span()
	morsels := morselRanges(s.len())
	buf := make([]uint32, s.len())
	parts := make([][]uint32, len(morsels))
	errs := make([]error, len(morsels))
	one := func(m int) {
		lo, hi := int(morsels[m][0]), int(morsels[m][1])
		cx := evalCtx{t: f.t}
		parts[m], _ = f.root.eval(&cx, s.slice(lo, hi), false, buf[lo:hi])
		errs[m] = cx.err
	}
	if len(morsels) > 1 && p.Parallel(s.len()) {
		if err := p.Run(len(morsels), func(m int) error { one(m); return nil }); err != nil {
			return Rows{}, err
		}
	} else {
		for m := range morsels {
			if p.Poll != nil {
				if err := p.Poll(); err != nil {
					return Rows{}, err
				}
			}
			if one(m); errs[m] != nil {
				break
			}
		}
	}
	// Morsels ascend, so the first failed morsel holds the first failed
	// row. A part is no longer than its morsel, so moving the parts down
	// in order never overwrites one not yet moved.
	total := 0
	for m, err := range errs {
		if err != nil {
			return Rows{}, err
		}
		total += copy(buf[total:], parts[m])
	}
	return Rows{t: f.t, idx: buf[:total]}, nil
}

// Matches returns the rows of the filter's table on which it is TRUE, in
// ascending order: the where scan of an update or delete. It evaluates one
// morsel at a time into one morsel-sized buffer and keeps only the
// matches, so it allocates for the rows it finds, not for the table.
func (f *Filter) Matches() ([]uint32, error) {
	n := uint32(f.t.rows)
	buf := make([]uint32, min(n, morselSize))
	var hit []uint32
	for lo := uint32(0); lo < n; lo += morselSize {
		in := span{lo: lo, hi: min(lo+morselSize, n)}
		cx := evalCtx{t: f.t}
		part, _ := f.root.eval(&cx, in, false, buf[:in.len()])
		if cx.err != nil {
			return nil, cx.err
		}
		hit = append(hit, part...)
	}
	return hit, nil
}
