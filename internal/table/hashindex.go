package table

import "sync/atomic"

// HashIndex maps keys to the dense 32-bit ids 0 … Len()-1: an
// open-addressing table of ids, probed by a 64-bit key hash and resolved
// by comparing keys, which stay wherever the caller keeps them (a vertex
// type's base table, a column dictionary). It holds two to four 32-bit
// slots per key and nothing else, so the collector never scans it.
//
// A HashIndex value is a view of a slot table that the versions of one
// dictionary or vertex type share, the way slices share an array: a view
// finds the ids below its own Len only, though the table may hold ids a
// later version added. The table's high-water mark counts the ids added
// to it; the one view that holds all of them may add the next in place,
// any other view first copies its ids into a table of its own. A reader
// loads slots atomically and the writer stores into a shared table
// atomically, so a reader may probe a table while a writer adds to it;
// a table no reader sees yet is filled with plain stores. The zero value
// is an empty index.
type HashIndex struct {
	slots []uint32 // id+1; 0 marks an empty slot. len is 0 or a power of two.
	n     int      // ids this view holds
	// hwm counts the ids added to slots; sealed once a view moved on to a
	// bigger table. nil while slots is nil.
	hwm *atomic.Int64
}

// sealed is the high-water mark of a table that takes no more ids.
const sealed = -1

// newHashIndex returns an empty index with room for n ids.
func newHashIndex(n int) HashIndex {
	return HashIndex{slots: make([]uint32, sizeFor(n)), hwm: new(atomic.Int64)}
}

// sizeFor is the slot count of a table built for n ids: the least power
// of two, at least 8, that holds them at half load.
func sizeFor(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// Len returns the number of ids the view holds.
func (ix *HashIndex) Len() int { return ix.n }

// Find returns the id below Len whose key hashes to h and satisfies same.
func (ix *HashIndex) Find(h uint64, same func(id uint32) bool) (uint32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := atomic.LoadUint32(&ix.slots[i])
		if s == 0 {
			return 0, false
		}
		if int(s-1) < ix.n && same(s-1) {
			return s - 1, true
		}
	}
}

// put records id under hash h in a table no reader sees yet.
func (ix *HashIndex) put(h uint64, id uint32) { *ix.slot(h) = id + 1 }

// slot returns the first empty slot of h's probe run. Only the writer
// that holds the table's mark writes slots, so its own reads need no
// atomics.
func (ix *HashIndex) slot(h uint64) *uint32 {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return &ix.slots[i]
}

// Append adds id Len() under hash h, whose key the view must not hold.
// When the view holds every id of its table it adds in place — into a
// table twice the size once the table is half full, re-adding the ids by
// hashOf and sealing the old one — and reports true: the caller then also
// owns the next position of any array the table's ids index. Otherwise
// it first copies its ids into a table of its own, by hashOf, and reports
// false.
func (ix *HashIndex) Append(h uint64, hashOf func(id uint32) uint64) bool {
	n := int64(ix.n)
	owned := ix.hwm != nil && ix.hwm.Load() == n
	switch {
	case owned && 2*(ix.n+1) <= len(ix.slots) && ix.hwm.CompareAndSwap(n, n+1):
		atomic.StoreUint32(ix.slot(h), uint32(ix.n)+1) // readers of the table probe it
		ix.n++
		return true
	case owned && ix.hwm.CompareAndSwap(n, sealed):
		*ix = ix.rehashed(max(8, 2*len(ix.slots))/2, hashOf)
	default:
		owned = false
		*ix = ix.rehashed(ix.n+1, hashOf)
	}
	ix.put(h, uint32(ix.n))
	ix.n++
	ix.hwm.Store(int64(ix.n))
	return owned
}

// rehashed returns the view's ids, placed by hashOf, in a table of its
// own with room for n ids.
func (ix *HashIndex) rehashed(n int, hashOf func(id uint32) uint64) HashIndex {
	out := newHashIndex(n)
	for id := range uint32(ix.n) {
		out.put(hashOf(id), id)
	}
	out.n = ix.n
	out.hwm.Store(int64(out.n))
	return out
}

// Renumber returns a view of n ids in a table of its own: the view's id
// v becomes remap[v] (^uint32(0): gone), and fresh lists the new ids that
// no old id maps onto. The table is copied rather than rebuilt: only the
// entries of a probe run that lost an id are placed again, and only they
// and the fresh ids are hashed, by hashOf of their new id. When a build
// of n ids would size its table otherwise, the view is rebuilt by hashOf
// whole instead, so the index is the size a build gives it.
func (ix *HashIndex) Renumber(remap, fresh []uint32, n int, hashOf func(id uint32) uint64) HashIndex {
	if n == 0 {
		return HashIndex{}
	}
	if len(ix.slots) != sizeFor(n) {
		out := HashIndex{n: n}
		return out.rehashed(n, hashOf)
	}
	out := HashIndex{slots: make([]uint32, len(ix.slots)), n: n, hwm: new(atomic.Int64)}
	out.hwm.Store(int64(n))
	// Probe runs end at empty slots, which the old table has (it holds
	// at most half as many ids as slots): walk the slots once from one,
	// run by run. Dropping
	// ids only ever shortens a run, so a run's survivors placed again stay
	// within the slots it covered.
	mask := len(ix.slots) - 1
	start := 0
	for atomic.LoadUint32(&ix.slots[start]) != 0 {
		start++
	}
	var run []uint32 // the new ids of the current run's survivors
	lost, from := false, 1
	for k := 1; k <= len(ix.slots); k++ {
		i := (start + k) & mask
		if s := atomic.LoadUint32(&ix.slots[i]); s != 0 {
			id := noRow
			if int(s-1) < ix.n {
				id = remap[s-1]
			}
			if id == noRow {
				lost = true
			} else {
				out.slots[i] = id + 1
				run = append(run, id)
			}
			continue
		}
		if lost {
			for j := from; j < k; j++ {
				out.slots[(start+j)&mask] = 0
			}
			for _, id := range run {
				out.put(hashOf(id), id)
			}
		}
		run, lost, from = run[:0], false, k+1
	}
	for _, id := range fresh {
		out.put(hashOf(id), id)
	}
	return out
}
