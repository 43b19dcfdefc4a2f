package bitmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	b := New(130)
	if b.Any() || b.Count() != 0 {
		t.Fatal("new bitmap must be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for _, i := range []uint32{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	b.Clear(63)
	if b.Get(63) || b.Count() != 3 {
		t.Error("Clear failed")
	}
	b.Reset()
	if b.Any() {
		t.Error("Reset failed")
	}
}

func TestNewFullTrims(t *testing.T) {
	b := NewFull(70)
	if b.Count() != 70 {
		t.Fatalf("NewFull(70).Count() = %d", b.Count())
	}
	got := b.Slice()
	if len(got) != 70 || got[0] != 0 || got[69] != 69 {
		t.Errorf("Slice = %v", got)
	}
}

// model-based property test: set algebra over random operations agrees
// with a map[uint32]bool model.
func TestAlgebraAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n = 257
	for trial := 0; trial < 200; trial++ {
		a, b := New(n), New(n)
		ma, mb := map[uint32]bool{}, map[uint32]bool{}
		for i := 0; i < 120; i++ {
			x := uint32(r.Intn(n))
			if r.Intn(2) == 0 {
				a.Set(x)
				ma[x] = true
			} else {
				b.Set(x)
				mb[x] = true
			}
		}
		check := func(got *Bitmap, want func(uint32) bool, op string) {
			for i := uint32(0); i < n; i++ {
				if got.Get(i) != want(i) {
					t.Fatalf("%s mismatch at %d", op, i)
				}
			}
		}
		and := a.Clone()
		and.And(b)
		check(and, func(i uint32) bool { return ma[i] && mb[i] }, "and")
		or := a.Clone()
		or.Or(b)
		check(or, func(i uint32) bool { return ma[i] || mb[i] }, "or")
		andnot := a.Clone()
		andnot.AndNot(b)
		check(andnot, func(i uint32) bool { return ma[i] && !mb[i] }, "andnot")
		if !a.Equal(a.Clone()) {
			t.Fatal("clone must equal original")
		}
	}
}

func TestForEachRange(t *testing.T) {
	b := New(200)
	for i := uint32(0); i < 200; i += 3 {
		b.Set(i)
	}
	var got []uint32
	b.ForEachRange(10, 100, func(i uint32) { got = append(got, i) })
	for _, i := range got {
		if i < 10 || i >= 100 || i%3 != 0 {
			t.Fatalf("ForEachRange yielded %d", i)
		}
	}
	want := 0
	for i := uint32(10); i < 100; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("ForEachRange yielded %d bits, want %d", len(got), want)
	}
	// Degenerate ranges.
	b.ForEachRange(50, 50, func(uint32) { t.Error("empty range must not visit") })
	b.ForEachRange(150, 10, func(uint32) { t.Error("inverted range must not visit") })
}

// quick property: ForEach visits exactly Slice(), ascending, and Rank is a
// member's place in it.
func TestForEachMatchesSlice(t *testing.T) {
	f := func(seeds []uint16) bool {
		b := New(1 << 16)
		for _, s := range seeds {
			b.Set(uint32(s))
		}
		var visited []uint32
		b.ForEach(func(i uint32) { visited = append(visited, i) })
		sl, ranks := b.Slice(), b.Ranks()
		if len(visited) != len(sl) {
			return false
		}
		for i := range sl {
			if visited[i] != sl[i] || b.Rank(ranks, sl[i]) != i {
				return false
			}
			if i > 0 && sl[i] <= sl[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSetAtomicConcurrent(t *testing.T) {
	const n = 1 << 14
	b := New(n)
	firsts := make([]int, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint32(0); i < n; i++ {
				if b.SetAtomic(i) {
					firsts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	// Whoever won a bit, it is visible once the writers are done.
	for i := uint32(0); i < n; i++ {
		if !b.Get(i) {
			t.Fatalf("bit %d not visible after SetAtomic", i)
		}
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
	total := 0
	for _, f := range firsts {
		total += f
	}
	if total != n {
		t.Errorf("each bit must be won exactly once: %d wins for %d bits", total, n)
	}
}

// TestWordsRoundTrip: Words/NewFromWords are the wire form of a
// frontier; bits past the capacity are cleared and a short slice leaves
// the tail empty.
func TestWordsRoundTrip(t *testing.T) {
	b := FromSlice(130, []uint32{0, 64, 129})
	if c := NewFromWords(b.Len(), b.Words()); !c.Equal(b) {
		t.Errorf("round trip = %v, want %v", c.Slice(), b.Slice())
	}
	if c := NewFromWords(130, []uint64{1, 1, ^uint64(0)}); c.Count() != 4 {
		t.Errorf("bits past the capacity survived: %v", c.Slice())
	}
	if c := NewFromWords(130, []uint64{1}); c.Count() != 1 || !c.Get(0) {
		t.Errorf("short slice = %v, want only bit 0", c.Slice())
	}
}

func TestFromSlice(t *testing.T) {
	b := FromSlice(100, []uint32{1, 5, 99, 5})
	if b.Count() != 3 || !b.Get(1) || !b.Get(5) || !b.Get(99) {
		t.Errorf("FromSlice wrong: %v", b.Slice())
	}
}

func TestMaskGrowsOnSet(t *testing.T) {
	var m Mask
	if m.Get(0) || m.Get(1<<20) {
		t.Fatal("the zero mask must be empty")
	}
	for _, i := range []uint32{3, 64, 1000, 3} {
		m.Set(i)
	}
	for i := uint32(0); i < 2000; i++ {
		if want := i == 3 || i == 64 || i == 1000; m.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, m.Get(i), want)
		}
	}
	if len(m) != 1000/64+1 {
		t.Fatalf("mask holds %d words, want it to end at its highest bit", len(m))
	}
}
