// Package ir implements the binary intermediate representation of GraQL
// scripts (paper §III): "a GraQL script is parsed and compiled into a
// high-level binary intermediate representation (IR) that is a convenient
// mechanism for moving the query script from the front-end portion of the
// GEMS system to the backend for execution."
//
// The encoding is a compact, versioned, self-delimiting byte stream over
// the statically checked AST: varint-prefixed strings, one tag byte per
// node. Decode(Encode(s)) reproduces the script exactly (round-trip
// property tested), so the GEMS front-end (internal/server) ships IR bytes
// and the backend re-materialises statements without re-parsing text.
package ir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"graql/internal/ast"
	"graql/internal/expr"
	"graql/internal/value"
)

// Magic and Version identify the IR format. Version 2 added the select
// "analyze" flag (EXPLAIN ANALYZE); version 3 added the DML statements
// (insert/update/delete). Version 3 is a pure superset, so the decoder
// accepts both 2 and 3.
const (
	Magic      = "GRQL"
	Version    = 3
	minVersion = 2
)

// Statement tags.
const (
	tagCreateTable byte = iota + 1
	tagCreateVertex
	tagCreateEdge
	tagIngest
	tagSelect
	tagOutput
	tagInsert
	tagUpdate
	tagDelete
)

// Expression tags.
const (
	tagNilExpr byte = iota
	tagConst
	tagParam
	tagRef
	tagUnary
	tagBinary
)

// Path element tags.
const (
	tagVertexStep byte = iota + 1
	tagEdgeStep
	tagRegexGroup
)

// Encode serialises a script into IR bytes.
func Encode(s *ast.Script) ([]byte, error) {
	w := &writer{}
	w.raw([]byte(Magic))
	w.u8(Version)
	w.uvarint(uint64(len(s.Stmts)))
	for _, st := range s.Stmts {
		if err := w.stmt(st); err != nil {
			return nil, err
		}
	}
	return w.buf.Bytes(), nil
}

// Decode parses IR bytes back into a script.
func Decode(data []byte) (*ast.Script, error) {
	r := &reader{data: data}
	magic := r.raw(4)
	if string(magic) != Magic {
		return nil, errors.New("graql: not GraQL IR (bad magic)")
	}
	if v := r.u8(); v < minVersion || v > Version {
		return nil, fmt.Errorf("graql: unsupported IR version %d", v)
	}
	n := r.count()
	s := &ast.Script{}
	for i := uint64(0); i < n; i++ {
		st, err := r.stmt()
		if err != nil {
			return nil, err
		}
		s.Stmts = append(s.Stmts, st)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("graql: %d trailing bytes after IR", len(r.data)-r.pos)
	}
	return s, nil
}

type writer struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *writer) raw(b []byte) { w.buf.Write(b) }
func (w *writer) u8(v byte)    { w.buf.WriteByte(v) }
func (w *writer) bool_(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("graql: IR decode at byte %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

func (r *reader) raw(n int) []byte {
	if r.err != nil || r.pos+n > len(r.data) {
		r.fail("truncated (%d bytes wanted)", n)
		return make([]byte, n)
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) u8() byte { return r.raw(1)[0] }

func (r *reader) bool_() bool { return r.u8() != 0 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

// count reads an element count. Every element occupies at least one
// byte of input, so a count beyond what remains is corruption; it is
// refused here instead of being looped over.
func (r *reader) count() uint64 {
	n := r.uvarint()
	if n > uint64(len(r.data)-r.pos) {
		r.fail("count %d exceeds input", n)
		return 0
	}
	return n
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.data)-r.pos) {
		r.fail("string length %d exceeds input", n)
		return ""
	}
	return string(r.raw(int(n)))
}

// --- values ---

func (w *writer) value(v value.Value) {
	w.u8(byte(v.Kind()))
	w.bool_(v.IsNull())
	if v.IsNull() {
		return
	}
	switch v.Kind() {
	case value.KindBool, value.KindInt, value.KindDate:
		w.varint(v.Int())
	case value.KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		w.raw(b[:])
	case value.KindString:
		w.str(v.Str())
	}
}

func (r *reader) value() value.Value {
	kind := value.Kind(r.u8())
	if r.bool_() {
		return value.NewNull(kind)
	}
	switch kind {
	case value.KindBool:
		return value.NewBool(r.varint() != 0)
	case value.KindInt:
		return value.NewInt(r.varint())
	case value.KindDate:
		return value.NewDate(r.varint())
	case value.KindFloat:
		b := r.raw(8)
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case value.KindString:
		return value.NewString(r.str())
	}
	if kind != value.KindInvalid {
		r.fail("bad value kind %d", kind)
	}
	return value.NewNull(value.KindInvalid)
}

func (w *writer) typ(t value.Type) {
	w.u8(byte(t.Kind))
	w.uvarint(uint64(t.Width))
}

func (r *reader) typ() value.Type {
	k := value.Kind(r.u8())
	wd := r.uvarint()
	return value.Type{Kind: k, Width: int(wd)}
}

// --- expressions ---

func (w *writer) expr(e expr.Expr) error {
	switch n := e.(type) {
	case nil:
		w.u8(tagNilExpr)
	case *expr.Const:
		w.u8(tagConst)
		w.value(n.V)
	case *expr.Param:
		w.u8(tagParam)
		w.str(n.Name)
	case *expr.Ref:
		w.u8(tagRef)
		w.str(n.Qualifier)
		w.str(n.Name)
	case *expr.Unary:
		w.u8(tagUnary)
		w.u8(byte(n.Op))
		if err := w.expr(n.X); err != nil {
			return err
		}
	case *expr.Binary:
		w.u8(tagBinary)
		w.u8(byte(n.Op))
		if err := w.expr(n.L); err != nil {
			return err
		}
		if err := w.expr(n.R); err != nil {
			return err
		}
	default:
		return fmt.Errorf("graql: IR cannot encode expression %T", e)
	}
	return nil
}

func (r *reader) expr() (expr.Expr, error) {
	switch tag := r.u8(); tag {
	case tagNilExpr:
		return nil, r.err
	case tagConst:
		return expr.NewConst(r.value()), r.err
	case tagParam:
		return &expr.Param{Name: r.str()}, r.err
	case tagRef:
		q := r.str()
		n := r.str()
		return expr.NewRef(q, n), r.err
	case tagUnary:
		op := expr.Op(r.u8())
		x, err := r.expr()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: op, X: x}, r.err
	case tagBinary:
		op := expr.Op(r.u8())
		l, err := r.expr()
		if err != nil {
			return nil, err
		}
		rr, err := r.expr()
		if err != nil {
			return nil, err
		}
		return expr.NewBinary(op, l, rr), r.err
	default:
		r.fail("bad expression tag %d", tag)
		return nil, r.err
	}
}
