package table

import "sync/atomic"

// A write builds a new version of a table, and of the views over it, by
// appending into capacity past the current version's arrays rather than
// copying them (DESIGN.md §10). One rule decides when it may: a version
// appends into the spare capacity of a backing array only if its slice
// ends at the array's high-water mark, which it then advances; otherwise
// it copies. A reader is safe because no version reads past its own
// length, and an older version's length never changes. A write that
// fails leaves the mark advanced, so the next one copies rather than
// reuse those bytes under a version that may still hold them.

// A Tail is the high-water mark of one backing array that versions
// share, kept as the spare capacity past it: every slice of the array
// that ends at the mark has exactly that much capacity left, however
// far its start lies. A nil Tail stands for an array that no version
// may append into in place.
type Tail struct{ spare atomic.Int64 }

// NewTail returns the tail of an array whose slice s ends at the mark.
func NewTail[T any](s []T) *Tail {
	t := new(Tail)
	t.spare.Store(int64(cap(s) - len(s)))
	return t
}

// Grow returns s lengthened by k elements, and the tail of the array
// the result lies in. When s ends at tail's high-water mark with room
// for k more it claims them in place; otherwise it copies s into a new
// array with headroom, a fixed eighth of the new length, under a new
// tail. The caller writes each of the k new elements, which hold
// whatever a failed write left there.
func Grow[S ~[]T, T any](s S, tail *Tail, k int) (S, *Tail) {
	if spare := int64(cap(s) - len(s)); tail != nil && spare >= int64(k) && tail.spare.CompareAndSwap(spare, spare-int64(k)) {
		return s[:len(s)+k], tail
	}
	n := len(s) + k
	out := make(S, n, n+n/8)
	copy(out, s)
	return out, NewTail(out)
}

// withRoom returns a copy of s with headroom under a new tail: the
// array a write-built version gets when it rewrites or gathers cells.
func withRoom[S ~[]T, T any](s S) (S, *Tail) {
	out, t := Grow(S(nil), nil, len(s))
	copy(out, s)
	return out, t
}
