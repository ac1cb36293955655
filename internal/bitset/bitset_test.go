package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetAddContainsRemove(t *testing.T) {
	s := New(128)
	for _, i := range []int{0, 1, 63, 64, 65, 127} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set missing %d after Add", i)
		}
	}
	if got := s.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("set contains 64 after Remove")
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
}

func TestSetGrowsBeyondCapacity(t *testing.T) {
	s := New(8)
	s.Add(1000)
	if !s.Contains(1000) {
		t.Fatal("set missing 1000 after growth")
	}
	if s.Contains(999) {
		t.Fatal("spurious member 999")
	}
}

func TestSetRemoveBeyondCapacityIsNoop(t *testing.T) {
	s := New(8)
	s.Remove(1 << 20) // must not panic or grow
	if !s.Empty() {
		t.Fatal("set not empty")
	}
}

func TestSetZeroValueUsable(t *testing.T) {
	var s Set
	if s.Contains(3) || !s.Empty() || s.Len() != 0 {
		t.Fatal("zero Set misbehaves before Add")
	}
	s.Add(3)
	if !s.Contains(3) {
		t.Fatal("zero Set missing 3 after Add")
	}
}

func TestSetSliceRoundTrip(t *testing.T) {
	in := []int{9, 2, 77, 2, 500, 0}
	s := FromSlice(in)
	want := []int{0, 2, 9, 77, 500}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestSetClearAndClearSlice(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 200})
	s.ClearSlice([]int32{2, 200})
	if s.Contains(2) || s.Contains(200) || !s.Contains(1) || !s.Contains(3) {
		t.Fatalf("ClearSlice wrong result: %v", s)
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left members behind")
	}
}

func TestSetEqualDifferentCapacities(t *testing.T) {
	a := New(8)
	b := New(1024)
	a.Add(5)
	b.Add(5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal sets with different capacities compare unequal")
	}
	b.Add(900)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal sets compare equal")
	}
}

func TestSetSubsetAndIntersection(t *testing.T) {
	a := FromSlice([]int{1, 2, 3})
	b := FromSlice([]int{1, 2, 3, 4, 100})
	if !a.SubsetOf(b) {
		t.Fatal("a ⊄ b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊆ a")
	}
	if got := a.IntersectionLen(b); got != 3 {
		t.Fatalf("IntersectionLen = %d, want 3", got)
	}
}

func TestSetString(t *testing.T) {
	s := FromSlice([]int{2, 0})
	if got := s.String(); got != "{0, 2}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Set semantics match map[int]bool under a random op sequence.
func TestSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New(64)
		model := map[int]bool{}
		for op := 0; op < 500; op++ {
			i := rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				s.Add(i)
				model[i] = true
			case 1:
				s.Remove(i)
				delete(model, i)
			case 2:
				if s.Contains(i) != model[i] {
					t.Fatalf("trial %d: Contains(%d) = %v, model %v", trial, i, s.Contains(i), model[i])
				}
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("trial %d: Len = %d, model %d", trial, s.Len(), len(model))
		}
		keys := make([]int, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		got := s.Slice()
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("trial %d: Slice diverges from model", trial)
			}
		}
	}
}

// Property (testing/quick): intersection length is symmetric and bounded.
func TestQuickIntersectionSymmetric(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(1<<16), New(1<<16)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		il := a.IntersectionLen(b)
		return il == b.IntersectionLen(a) && il <= a.Len() && il <= b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): SubsetOf agrees with the definition.
func TestQuickSubsetDefinition(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		want := true
		a.ForEach(func(i int) {
			if !b.Contains(i) {
				want = false
			}
		})
		return a.SubsetOf(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskBasics(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		a := NewMaskArena(width)
		m := a.New()
		if !m.Zero() || m.Count() != 0 {
			t.Fatalf("width %d: fresh mask not zero", width)
		}
		hi := width*64 - 1
		m.Set(0)
		m.Set(hi)
		if !m.Has(0) || !m.Has(hi) || m.Has(1) {
			t.Fatalf("width %d: Set/Has mismatch", width)
		}
		if m.Count() != 2 {
			t.Fatalf("width %d: Count = %d, want 2", width, m.Count())
		}
		bitsGot := m.Bits()
		if len(bitsGot) != 2 || bitsGot[0] != 0 || bitsGot[1] != hi {
			t.Fatalf("width %d: Bits = %v", width, bitsGot)
		}
	}
}

func TestMaskAndSubsetEqual(t *testing.T) {
	a := NewMaskArena(2)
	x, y, z := a.New(), a.New(), a.New()
	x.Set(3)
	x.Set(100)
	y.Set(3)
	y.Set(70)
	MaskAnd(z, x, y)
	if !z.Has(3) || z.Has(70) || z.Has(100) || z.Count() != 1 {
		t.Fatalf("MaskAnd wrong: %v", z.Bits())
	}
	if !z.SubsetOf(x) || !z.SubsetOf(y) {
		t.Fatal("intersection not subset of operands")
	}
	if x.SubsetOf(y) {
		t.Fatal("x ⊆ y but shouldn't be")
	}
	w := a.New()
	w.CopyFrom(x)
	if !w.Equal(x) || w.Equal(y) {
		t.Fatal("Equal/CopyFrom mismatch")
	}
}

func TestMaskAndNotZero(t *testing.T) {
	a := NewMaskArena(2)
	x, y, dst := a.New(), a.New(), a.New()
	x.Set(5)
	y.Set(6)
	if MaskAndNotZero(dst, x, y) {
		t.Fatal("disjoint masks reported non-zero intersection")
	}
	if !dst.Zero() {
		t.Fatal("dst not zero after disjoint AND")
	}
	y.Set(5)
	if !MaskAndNotZero(dst, x, y) {
		t.Fatal("overlapping masks reported zero intersection")
	}
	if !dst.Has(5) || dst.Count() != 1 {
		t.Fatalf("dst wrong: %v", dst.Bits())
	}
}

func TestMaskArenaIsolation(t *testing.T) {
	a := NewMaskArena(1)
	if a.Width() != 1 {
		t.Fatalf("Width = %d", a.Width())
	}
	// Ensure masks from the same arena never alias, across block refills.
	masks := make([]Mask, 0, arenaBlockWords+10)
	for i := 0; i < arenaBlockWords+10; i++ {
		m := a.New()
		m.Set(i % 64)
		masks = append(masks, m)
	}
	for i, m := range masks {
		if m.Count() != 1 || !m.Has(i%64) {
			t.Fatalf("mask %d corrupted: %v", i, m.Bits())
		}
	}
}

func TestMaskArenaInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMaskArena(0) did not panic")
		}
	}()
	NewMaskArena(0)
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{-1: 0, 0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Fatalf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func BenchmarkMaskAnd1Word(b *testing.B) {
	a := NewMaskArena(1)
	x, y, z := a.New(), a.New(), a.New()
	for i := 0; i < 40; i++ {
		x.Set(i)
	}
	y.Set(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaskAnd(z, x, y)
	}
}

func BenchmarkSetIntersectionLen(b *testing.B) {
	x, y := New(1<<16), New(1<<16)
	for i := 0; i < 1<<16; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 1<<16; i += 5 {
		y.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectionLen(y)
	}
}
