package table

import (
	"cmp"

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
	// Typed leaves: match appends the rows of in on which the comparison
	// holds; operands are the columns whose NULL rows make it NULL.
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

// matchConst selects the non-NULL rows r with data[r] <op> c. cmp.Compare
// orders floats as value.Compare does (NaN first, -0 = +0).
func matchConst[T cmp.Ordered](data []T, nulls bitmap.Mask, c T, mask uint8, in span, out []uint32) []uint32 {
	for i, n := 0, in.len(); i < n; i++ {
		if r := in.at(i); holds(mask, cmp.Compare(data[r], c)) && !nulls.Get(r) {
			out = append(out, r)
		}
	}
	return out
}

// matchCols selects the rows r, non-NULL on both sides, with a[r] <op> b[r].
func matchCols[T cmp.Ordered](a, b []T, an, bn bitmap.Mask, mask uint8, in span, out []uint32) []uint32 {
	for i, n := 0, in.len(); i < n; i++ {
		if r := in.at(i); holds(mask, cmp.Compare(a[r], b[r])) && !an.Get(r) && !bn.Get(r) {
			out = append(out, r)
		}
	}
	return out
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
				for i, n := 0, in.len(); i < n; i++ {
					if r := in.at(i); c.data[r] && !c.nulls.Get(r) {
						dst = append(dst, r)
					}
				}
				return dst
			}
		}
	case expr.KernelCmpConst:
		out.operands = []Column{t.cols[k.Col]}
		out.match = bindCmpConst(t.cols[k.Col], cmpMask(k.Cmp), k.Val)
	case expr.KernelCmpCols:
		out.operands = []Column{t.cols[k.Col], t.cols[k.Col2]}
		out.match = bindCmpCols(t.cols[k.Col], t.cols[k.Col2], cmpMask(k.Cmp))
	}
	if out.match == nil {
		out.kind, out.mayFail = expr.KernelGeneric, true
	}
	return out
}

func bindCmpConst(col Column, mask uint8, v value.Value) func(span, []uint32) []uint32 {
	switch c := col.(type) {
	case *intColumn:
		return func(in span, out []uint32) []uint32 { return matchConst(c.data, c.nulls, v.I, mask, in, out) }
	case *floatColumn:
		return func(in span, out []uint32) []uint32 { return matchConst(c.data, c.nulls, v.F, mask, in, out) }
	case *boolColumn:
		hit := [2]bool{holds(mask, cmp.Compare(0, v.I)), holds(mask, cmp.Compare(1, v.I))}
		return func(in span, out []uint32) []uint32 {
			for i, n := 0, in.len(); i < n; i++ {
				r := in.at(i)
				b := 0
				if c.data[r] {
					b = 1
				}
				if hit[b] && !c.nulls.Get(r) {
					out = append(out, r)
				}
			}
			return out
		}
	case *stringColumn:
		if mask == cmpMask(expr.OpEq) || mask == cmpMask(expr.OpNe) {
			// One dictionary lookup per statement; a string the column
			// has never seen equals no row and differs from every one.
			code, ok := c.codeOf(v.S)
			if !ok {
				code = nullCode - 1
			}
			eq := mask == cmpMask(expr.OpEq)
			return func(in span, out []uint32) []uint32 {
				for i, n := 0, in.len(); i < n; i++ {
					r := in.at(i)
					if rc := c.codes[r]; (rc == code) == eq && rc != nullCode {
						out = append(out, r)
					}
				}
				return out
			}
		}
		return func(in span, out []uint32) []uint32 {
			for i, n := 0, in.len(); i < n; i++ {
				r := in.at(i)
				if rc := c.codes[r]; rc != nullCode && holds(mask, cmp.Compare(c.dict[rc], v.S)) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return nil
}

func bindCmpCols(a, b Column, mask uint8) func(span, []uint32) []uint32 {
	switch a := a.(type) {
	case *intColumn:
		if b, ok := b.(*intColumn); ok {
			return func(in span, out []uint32) []uint32 {
				return matchCols(a.data, b.data, a.nulls, b.nulls, mask, in, out)
			}
		}
	case *floatColumn:
		if b, ok := b.(*floatColumn); ok {
			return func(in span, out []uint32) []uint32 {
				return matchCols(a.data, b.data, a.nulls, b.nulls, mask, in, out)
			}
		}
	case *stringColumn:
		if b, ok := b.(*stringColumn); ok {
			return func(in span, out []uint32) []uint32 {
				for i, n := 0, in.len(); i < n; i++ {
					r := in.at(i)
					ca, cb := a.codes[r], b.codes[r]
					if ca != nullCode && cb != nullCode && holds(mask, cmp.Compare(a.dict[ca], b.dict[cb])) {
						out = append(out, r)
					}
				}
				return out
			}
		}
	}
	return nil
}

// eval partitions the rows of in by the node's truth value: t lists those
// on which it is TRUE and, when wantNull, n those on which it is NULL, both
// ascending. A row whose evaluation fails is reported to cx and listed in
// neither.
func (k *kernel) eval(cx *evalCtx, in span, wantNull bool) (t, n []uint32) {
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
			tl, _ := k.l.eval(cx, in, false)
			tr, _ := k.r.eval(cx, span{sel: tl}, false)
			return tr, nil
		}
		// The reference evaluates the right side wherever the left is not
		// FALSE, so a failure there must surface.
		tl, nl := k.l.eval(cx, in, true)
		tr, nr := k.r.eval(cx, span{sel: union(tl, nl)}, true)
		t = inter(tl, tr)
		if wantNull {
			n = union(inter(tl, nr), inter(nl, union(tr, nr)))
		}
		return t, n

	case expr.KernelOr:
		tl, nl := k.l.eval(cx, in, wantNull)
		tr, nr := k.r.eval(cx, span{sel: in.minus(tl)}, wantNull)
		if wantNull {
			n = union(nr, diff(nl, tr))
		}
		return union(tl, tr), n

	case expr.KernelNot:
		tx, nx := k.l.eval(cx, in, true)
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

	t = k.match(in, make([]uint32, 0, in.len()))
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

// Select runs the filter over in, rows of its table in ascending order,
// morsel by morsel — on p's workers when in clears p's threshold and spans
// more than one morsel — and returns the selected rows in ascending order.
func (f *Filter) Select(in Rows, p Par) (Rows, error) {
	s := in.span()
	morsels := morselRanges(s.len())
	parts := make([][]uint32, len(morsels))
	errs := make([]error, len(morsels))
	one := func(m int) {
		cx := evalCtx{t: f.t}
		parts[m], _ = f.root.eval(&cx, s.slice(int(morsels[m][0]), int(morsels[m][1])), false)
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
	// Morsels ascend, so the first failed morsel holds the first failed row.
	total := 0
	for m, err := range errs {
		if err != nil {
			return Rows{}, err
		}
		total += len(parts[m])
	}
	if len(parts) == 1 {
		return Rows{t: f.t, idx: parts[0]}, nil
	}
	idx := make([]uint32, 0, total)
	for _, part := range parts {
		idx = append(idx, part...)
	}
	return Rows{t: f.t, idx: idx}, nil
}
