// Package value implements the strongly typed scalar values of the GraQL
// data model: integer, float, varchar(n), date and boolean attributes.
//
// GraQL requires all database elements to be strongly typed (paper §I,
// "All database elements are strongly typed"); comparisons between
// incompatible families (e.g. a date and a floating-point number, the
// paper's own example in §III-A) are reported as errors rather than
// silently coerced. The only permitted cross-kind comparison is within the
// numeric family (integer vs float).
package value

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the scalar type families supported by GraQL attributes.
type Kind uint8

// The supported attribute kinds. KindInvalid is the zero value and marks an
// absent or erroneous value.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the GraQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "boolean"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "varchar"
	case KindDate:
		return "date"
	default:
		return "invalid"
	}
}

// Numeric reports whether the kind belongs to the numeric family.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Type is a complete attribute type: a kind plus, for varchar columns, the
// declared maximum width. Width 0 means unbounded.
type Type struct {
	Kind  Kind
	Width int
}

// Common pre-built types.
var (
	Bool    = Type{Kind: KindBool}
	Int     = Type{Kind: KindInt}
	Float   = Type{Kind: KindFloat}
	Date    = Type{Kind: KindDate}
	Text    = Type{Kind: KindString}
	Invalid = Type{}
)

// Varchar returns a varchar(n) type.
func Varchar(n int) Type { return Type{Kind: KindString, Width: n} }

// String returns the DDL spelling of the type.
func (t Type) String() string {
	if t.Kind == KindString && t.Width > 0 {
		return fmt.Sprintf("varchar(%d)", t.Width)
	}
	return t.Kind.String()
}

// Comparable reports whether values of type t may be compared with values
// of type u under GraQL's strong typing rules.
func (t Type) Comparable(u Type) bool {
	if t.Kind == u.Kind {
		return t.Kind != KindInvalid
	}
	return t.Kind.Numeric() && u.Kind.Numeric()
}

// Value is a single typed scalar. The representation is a tagged union:
// integers, dates (days since the Unix epoch) and booleans (0/1) live in I,
// floats in F, and strings in S. Null marks SQL NULL.
type Value struct {
	S    string
	I    int64
	F    float64
	K    Kind
	Null bool
}

// Typed constructors.

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a varchar value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewNull returns a NULL of the given kind.
func NewNull(k Kind) Value { return Value{K: k, Null: true} }

// DateFromYMD returns a date value for the given calendar day (UTC).
func DateFromYMD(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.K }

// Bool returns the boolean payload. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.I != 0 }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.I }

// Float returns the value as a float64, coercing integers.
func (v Value) Float() float64 {
	if v.K == KindInt {
		return float64(v.I)
	}
	return v.F
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Days returns the date payload in days since the Unix epoch.
func (v Value) Days() int64 { return v.I }

// Time returns the date payload as a time.Time (UTC midnight).
func (v Value) Time() time.Time { return time.Unix(v.I*86400, 0).UTC() }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// String formats the value for display and CSV output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.K {
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return "<invalid>"
	}
}

// Compare orders a against b: -1, 0 or +1. It returns an error when the
// kinds are not comparable under GraQL's typing rules (e.g. date vs float).
// NULLs order before all non-NULL values and equal to each other.
func Compare(a, b Value) (int, error) {
	if !(Type{Kind: a.K}).Comparable(Type{Kind: b.K}) {
		return 0, &TypeError{Op: "compare", A: a.K, B: b.K}
	}
	switch {
	case a.Null && b.Null:
		return 0, nil
	case a.Null:
		return -1, nil
	case b.Null:
		return 1, nil
	}
	if a.K.Numeric() && (a.K != b.K) {
		return cmpFloat(a.Float(), b.Float()), nil
	}
	switch a.K {
	case KindBool, KindInt, KindDate:
		return cmpInt(a.I, b.I), nil
	case KindFloat:
		return cmpFloat(a.F, b.F), nil
	case KindString:
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		}
		return 0, nil
	}
	return 0, &TypeError{Op: "compare", A: a.K, B: b.K}
}

// Equal reports whether a and b are equal. Unlike Compare it never errors:
// values of incomparable kinds are simply unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b || (math.IsNaN(a) && !math.IsNaN(b)):
		return -1
	case a > b || (math.IsNaN(b) && !math.IsNaN(a)):
		return 1
	}
	return 0
}

// TypeError reports an operation applied to incompatible kinds; it is the
// error class surfaced by GraQL static analysis for queries like the
// paper's "comparing a date to a floating-point number".
type TypeError struct {
	Op string
	A  Kind
	B  Kind
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("graql: type error: cannot %s %s and %s", e.Op, e.A, e.B)
}

// FloatKey returns the hash-key image of f: its IEEE bits with -0 folded
// onto +0, because Compare orders the two zeros as equal and equal values
// must share a key.
func FloatKey(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// AppendKey appends a canonical, self-delimiting binary encoding of v to
// dst, for use as a hash-map key in joins, group-by and vertex key indexes.
// Distinct values produce distinct encodings; equal values (including an
// int and a float that compare equal) produce identical encodings only when
// their kinds match, so callers must normalise kinds first if they need
// cross-kind key equality.
func (v Value) AppendKey(dst []byte) []byte {
	if v.Null {
		return append(dst, 0xff)
	}
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindBool, KindInt, KindDate:
		u := uint64(v.I)
		dst = append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case KindFloat:
		u := FloatKey(v.F)
		dst = append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case KindString:
		n := uint32(len(v.S))
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		dst = append(dst, v.S...)
	}
	return dst
}
