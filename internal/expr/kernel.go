package expr

import "graql/internal/value"

// Kernel compilation: a resolved, parameter-bound predicate over one
// table is classified into a tree of typed kernels that the table layer
// runs over raw column slices and selection vectors (DESIGN.md §16).
// Eval remains the specification; a kernel exists for exactly the shapes
// whose Eval result is a function of the column payloads alone and can
// never fail, and everything else — arithmetic, cross-kind comparisons,
// ill-typed operands — becomes a KernelGeneric leaf that calls Eval.

// KernelKind discriminates the nodes of a compiled predicate.
type KernelKind uint8

// Kernel node kinds.
const (
	// KernelGeneric evaluates E row by row through Eval.
	KernelGeneric KernelKind = iota
	// KernelConst is the constant truth value Val (boolean, maybe NULL).
	KernelConst
	// KernelBoolCol is boolean column Col used as a predicate.
	KernelBoolCol
	// KernelCmpConst is column Col <Cmp> Val, with Val non-NULL and of
	// the column's kind.
	KernelCmpConst
	// KernelCmpCols is column Col <Cmp> column Col2, of one kind.
	KernelCmpCols
	// KernelAnd and KernelOr combine L and R by Kleene rules.
	KernelAnd
	KernelOr
	// KernelNot negates L.
	KernelNot
)

// Kernel is one node of a compiled predicate.
type Kernel struct {
	Kind      KernelKind
	Cmp       Op
	Col, Col2 int
	Val       value.Value
	L, R      *Kernel
	// E is the expression the node was compiled from; a generic leaf
	// evaluates it.
	E Expr
}

// CompileKernel classifies predicate e, whose references all resolve to
// columns of one table; colKind reports a column's kind (KindInvalid for
// an index the table does not have).
func CompileKernel(e Expr, colKind func(col int) value.Kind) *Kernel {
	generic := &Kernel{Kind: KernelGeneric, E: e}
	switch n := e.(type) {
	case *Const:
		if n.V.Kind() == value.KindBool {
			return &Kernel{Kind: KernelConst, Val: n.V, E: e}
		}
	case *Ref:
		if n.Resolved() && colKind(n.Col) == value.KindBool {
			return &Kernel{Kind: KernelBoolCol, Col: n.Col, E: e}
		}
	case *Unary:
		if n.Op == OpNot && boolValued(n.X, colKind) {
			return &Kernel{Kind: KernelNot, L: CompileKernel(n.X, colKind), E: e}
		}
	case *Binary:
		switch {
		case n.Op == OpAnd || n.Op == OpOr:
			// A connective over an operand that is not boolean-valued
			// fails on the rows that reach it; Eval decides which.
			if !boolValued(n.L, colKind) || !boolValued(n.R, colKind) {
				return generic
			}
			kind := KernelAnd
			if n.Op == OpOr {
				kind = KernelOr
			}
			return &Kernel{Kind: kind, L: CompileKernel(n.L, colKind), R: CompileKernel(n.R, colKind), E: e}
		case n.Op.Comparison():
			if k := compileComparison(n, colKind); k != nil {
				return k
			}
		}
	}
	return generic
}

// boolValued reports whether e, when its evaluation succeeds, always
// yields a boolean (possibly NULL).
func boolValued(e Expr, colKind func(int) value.Kind) bool {
	switch n := e.(type) {
	case *Const:
		return n.V.Kind() == value.KindBool
	case *Ref:
		return n.Resolved() && colKind(n.Col) == value.KindBool
	case *Unary:
		return n.Op == OpNot
	case *Binary:
		return n.Op.Comparison() || n.Op == OpAnd || n.Op == OpOr
	}
	return false
}

// compileComparison kernelises column-to-constant and column-to-column
// comparisons within one kind; nil means the generic leaf.
func compileComparison(n *Binary, colKind func(int) value.Kind) *Kernel {
	lr, lIsRef := n.L.(*Ref)
	rr, rIsRef := n.R.(*Ref)
	if lIsRef && rIsRef {
		if lr.Resolved() && rr.Resolved() && colKind(lr.Col) == colKind(rr.Col) && colKind(lr.Col) != value.KindInvalid {
			return &Kernel{Kind: KernelCmpCols, Cmp: n.Op, Col: lr.Col, Col2: rr.Col, E: n}
		}
		return nil
	}
	ref, c, op := lr, n.R, n.Op
	if rIsRef {
		ref, c, op = rr, n.L, flipComparison(n.Op)
	}
	k, isConst := c.(*Const)
	if ref == nil || !isConst || !ref.Resolved() {
		return nil
	}
	ck := colKind(ref.Col)
	if ck == value.KindInvalid {
		return nil
	}
	if k.V.IsNull() {
		// A comparison with NULL is NULL on every row, whatever the kinds.
		return &Kernel{Kind: KernelConst, Val: value.NewNull(value.KindBool), E: n}
	}
	v := k.V
	if ck == value.KindFloat && v.Kind() == value.KindInt {
		v = value.NewFloat(v.Float()) // Compare widens the integer the same way
	}
	if v.Kind() != ck {
		return nil
	}
	return &Kernel{Kind: KernelCmpConst, Cmp: op, Col: ref.Col, Val: v, E: n}
}

// flipComparison returns the operator with its operands exchanged.
func flipComparison(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}
