// Package bitmap provides dense bitsets over vertex and row identifiers.
//
// Bitmaps are the workhorse of the GEMS-style path-matching engine: the set
// of vertices matched at each query step (paper Eq. 5) is a bitmap over the
// vertex type's dense local ids, and the forward-expansion / backward-culling
// passes are bitmap unions and intersections. SetAtomic allows concurrent
// workers to mark vertices during parallel frontier expansion without locks.
package bitmap

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitmap is a fixed-size dense bitset. The zero value is an empty bitmap of
// size 0; use New to allocate one of a given size.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns an empty bitmap able to hold bits [0, n).
func New(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a bitmap of size n with every bit set.
func NewFull(n int) *Bitmap {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
	return b
}

// trim clears any bits beyond n in the final word.
func (b *Bitmap) trim() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Len returns the capacity (number of addressable bits).
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i uint32) { b.words[i/wordBits] |= 1 << (i % wordBits) }

// Clear clears bit i.
func (b *Bitmap) Clear(i uint32) { b.words[i/wordBits] &^= 1 << (i % wordBits) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i uint32) bool {
	return b.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// SetAtomic sets bit i with a lock-free atomic OR, safe for concurrent use
// by parallel frontier workers. It reports whether this call changed the
// bit (i.e. the caller is the first to mark it).
func (b *Bitmap) SetAtomic(i uint32) bool {
	addr := &b.words[i/wordBits]
	mask := uint64(1) << (i % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Ranks returns b's rank directory: entry w counts the bits set in the
// words before word w, so that Rank takes one popcount.
func (b *Bitmap) Ranks() []uint32 {
	r, n := make([]uint32, len(b.words)), 0
	for w, x := range b.words {
		r[w] = uint32(n)
		n += bits.OnesCount64(x)
	}
	return r
}

// Rank returns the number of bits set below i — the index of i among the
// members in ascending order, if it is one — given b's Ranks.
func (b *Bitmap) Rank(ranks []uint32, i uint32) int {
	return int(ranks[i/wordBits]) + bits.OnesCount64(b.words[i/wordBits]&(1<<(i%wordBits)-1))
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// And intersects b with o in place. The bitmaps must be the same size.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b in place. The bitmaps must be the same size.
func (b *Bitmap) Or(o *Bitmap) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot removes o's bits from b in place.
func (b *Bitmap) AndNot(o *Bitmap) {
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns a copy of b.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Equal reports whether b and o hold exactly the same bits.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach invokes fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i uint32)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(uint32(wi*wordBits + tz))
			w &= w - 1
		}
	}
}

// ForEachRange invokes fn for every set bit i with lo <= i < hi, in
// ascending order. It is used to shard a frontier across workers.
func (b *Bitmap) ForEachRange(lo, hi uint32, fn func(i uint32)) {
	if hi > uint32(b.n) {
		hi = uint32(b.n)
	}
	if lo >= hi {
		return
	}
	first, last := int(lo/wordBits), int((hi-1)/wordBits)
	for wi := first; wi <= last; wi++ {
		w := b.words[wi]
		if wi == first {
			w &= ^uint64(0) << (lo % wordBits)
		}
		if wi == last {
			if rem := hi % wordBits; rem != 0 {
				w &= (1 << rem) - 1
			}
		}
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(uint32(wi*wordBits + tz))
			w &= w - 1
		}
	}
}

// Slice returns the indexes of all set bits in ascending order.
func (b *Bitmap) Slice() []uint32 {
	out := make([]uint32, 0, b.Count())
	b.ForEach(func(i uint32) { out = append(out, i) })
	return out
}

// FromSlice returns a bitmap of size n with exactly the given bits set.
func FromSlice(n int, idx []uint32) *Bitmap {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// Words exposes the backing word slice (64 bits per word, bit i of word
// w is id w*64+i). It is the wire form of a frontier in the distributed
// exchange protocol. Callers must treat it as read-only, except to fill a
// bitmap fresh from New or to set bits in it, leaving every bit at or past
// Len clear.
func (b *Bitmap) Words() []uint64 { return b.words }

// NewFromWords builds a bitmap of capacity n from a copy of the given
// word slice (the inverse of Words). Extra bits beyond n are cleared;
// a short slice leaves the tail empty.
func NewFromWords(n int, words []uint64) *Bitmap {
	b := New(n)
	copy(b.words, words)
	b.trim()
	return b
}

// Mask is a growable bit mask in Bitmap's word layout (bit i of word w is
// id w*64+i) for sets that are usually empty or sparse at the front, such
// as a column's NULL rows: the zero value is the empty mask, Set grows it
// to reach the bit, and ids beyond the last word read as unset.
type Mask []uint64

// Set sets bit i, growing the mask as needed.
func (m *Mask) Set(i uint32) {
	w := int(i / wordBits)
	if w >= len(*m) {
		*m = append(*m, make(Mask, w+1-len(*m))...)
	}
	(*m)[w] |= 1 << (i % wordBits)
}

// Put sets bit i when on and clears it otherwise.
func (m *Mask) Put(i uint32, on bool) {
	if on {
		m.Set(i)
	} else if w := int(i / wordBits); w < len(*m) {
		(*m)[w] &^= 1 << (i % wordBits)
	}
}

// Get reports whether bit i is set.
func (m Mask) Get(i uint32) bool {
	w := int(i / wordBits)
	return w < len(m) && m[w]&(1<<(i%wordBits)) != 0
}
