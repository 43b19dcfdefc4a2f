package graph

// keyIndex maps vertex keys to VIDs: an open-addressing table of VIDs,
// probed by a 64-bit key hash and resolved by comparing key cells, which
// stay in the Keys table. It holds one 32-bit slot per two to four
// vertices' worth of capacity and nothing per key, so a maintained vertex
// type copies it with one memmove.
type keyIndex struct {
	slots []uint32 // vid+1; 0 marks an empty slot. len is a power of two.
	used  int
}

// newKeyIndex returns an index with room for n keys.
func newKeyIndex(n int) keyIndex {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return keyIndex{slots: make([]uint32, size)}
}

// find returns the vertex whose key hashes to h and satisfies same.
func (ix *keyIndex) find(h uint64, same func(VID) bool) (VID, bool) {
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

// add records v under hash h. The key must be absent. When the table is
// half full it doubles first, re-placing every vertex by hashOf.
func (ix *keyIndex) add(h uint64, v VID, hashOf func(VID) uint64) {
	if 2*(ix.used+1) > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]uint32, 2*len(old))
		for _, s := range old {
			if s != 0 {
				ix.place(hashOf(s-1), s-1)
			}
		}
	}
	ix.place(h, v)
	ix.used++
}

func (ix *keyIndex) place(h uint64, v VID) {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = v + 1
}

// clone returns a copy that shares nothing with ix.
func (ix *keyIndex) clone() keyIndex {
	return keyIndex{slots: append([]uint32(nil), ix.slots...), used: ix.used}
}
