package table

// HashIndex maps keys to dense 32-bit ids: an open-addressing table of
// ids, probed by a 64-bit key hash and resolved by comparing keys, which
// stay wherever the caller keeps them (a vertex type's base table, a
// column dictionary). It holds two to four 32-bit slots per key and
// nothing else, so the collector never scans it and a copy is one
// memmove. The zero value is an empty index.
type HashIndex struct {
	slots []uint32 // id+1; 0 marks an empty slot. len is 0 or a power of two.
	used  int
}

// NewHashIndex returns an index with room for n keys.
func NewHashIndex(n int) HashIndex {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return HashIndex{slots: make([]uint32, size)}
}

// Len returns the number of ids indexed.
func (ix *HashIndex) Len() int { return ix.used }

// Find returns the id whose key hashes to h and satisfies same.
func (ix *HashIndex) Find(h uint64, same func(id uint32) bool) (uint32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return 0, false
		}
		if same(s - 1) {
			return s - 1, true
		}
	}
}

// Add records id under hash h. The key must be absent. When the table is
// half full it doubles first, re-adding every id by hashOf, which an index
// made by NewHashIndex for at least as many keys as it is given never calls.
func (ix *HashIndex) Add(h uint64, id uint32, hashOf func(id uint32) uint64) {
	if 2*(ix.used+1) > len(ix.slots) {
		old := ix.slots
		*ix = HashIndex{slots: make([]uint32, max(8, 2*len(old)))}
		for _, s := range old {
			if s != 0 {
				ix.Add(hashOf(s-1), s-1, nil)
			}
		}
	}
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = id + 1
	ix.used++
}

// Clone returns a copy that shares nothing with ix.
func (ix *HashIndex) Clone() HashIndex {
	return HashIndex{slots: append([]uint32(nil), ix.slots...), used: ix.used}
}
