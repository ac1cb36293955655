package bitset

import (
	"math/rand"
	"testing"
)

// boundaryWidths are the universe sizes that straddle 64-bit word
// boundaries: one bit short of a word, exactly one/two/four words, and one
// bit over. Off-by-one bugs in the word/bit index arithmetic or in partial
// last-word handling show up exactly here. 129/255/256 exercise the 3- and
// 4-word unrolled kernels (SmallStrideMax) and the seam just past them.
var boundaryWidths = []int{63, 64, 65, 127, 128, 129, 255, 256}

// refSet is the oracle: a plain map-backed set.
type refSet map[int]bool

func (r refSet) popcount() int { return len(r) }

func (r refSet) subsetOf(o refSet) bool {
	for i := range r {
		if !o[i] {
			return false
		}
	}
	return true
}

func (r refSet) and(o refSet) refSet {
	out := refSet{}
	for i := range r {
		if o[i] {
			out[i] = true
		}
	}
	return out
}

func randomRef(rng *rand.Rand, width int, density float64) refSet {
	r := refSet{}
	for i := 0; i < width; i++ {
		if rng.Float64() < density {
			r[i] = true
		}
	}
	return r
}

func setFromRef(r refSet, width int) *Set {
	s := New(width)
	for i := range r {
		s.Add(i)
	}
	return s
}

func maskFromRef(r refSet, width int) Mask {
	m := make(Mask, WordsFor(width))
	for i := range r {
		m.Set(i)
	}
	return m
}

func TestSetBoundaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range boundaryWidths {
		for trial := 0; trial < 50; trial++ {
			ra := randomRef(rng, width, 0.4)
			rb := randomRef(rng, width, 0.4)
			a, b := setFromRef(ra, width), setFromRef(rb, width)

			if got, want := a.Len(), ra.popcount(); got != want {
				t.Fatalf("width %d: Len %d, want %d", width, got, want)
			}
			for i := 0; i < width; i++ {
				if a.Contains(i) != ra[i] {
					t.Fatalf("width %d: Contains(%d) = %v, want %v", width, i, a.Contains(i), ra[i])
				}
			}
			if got, want := a.IntersectionLen(b), ra.and(rb).popcount(); got != want {
				t.Fatalf("width %d: IntersectionLen %d, want %d", width, got, want)
			}
			if got, want := a.SubsetOf(b), ra.subsetOf(rb); got != want {
				t.Fatalf("width %d: SubsetOf %v, want %v", width, got, want)
			}
			inter := a.Clone()
			for i := 0; i < width; i++ {
				if !b.Contains(i) {
					inter.Remove(i)
				}
			}
			if got, want := inter.Len(), ra.and(rb).popcount(); got != want {
				t.Fatalf("width %d: AND via Remove has %d members, want %d", width, got, want)
			}
			if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
				t.Fatalf("width %d: intersection not a subset of its operands", width)
			}
		}
	}
}

// TestSetBoundaryBitIsolated verifies that setting only the last valid bit
// of each width (and its neighbors across the word seam) never bleeds into
// adjacent bits.
func TestSetBoundaryBitIsolated(t *testing.T) {
	for _, width := range boundaryWidths {
		for _, i := range []int{0, width - 1, width / 2} {
			s := New(width)
			s.Add(i)
			if s.Len() != 1 {
				t.Fatalf("width %d: Add(%d) produced %d members", width, i, s.Len())
			}
			for j := 0; j < width; j++ {
				if s.Contains(j) != (j == i) {
					t.Fatalf("width %d: after Add(%d), Contains(%d) = %v", width, i, j, s.Contains(j))
				}
			}
			s.Remove(i)
			if !s.Empty() {
				t.Fatalf("width %d: Remove(%d) left members: %s", width, i, s)
			}
		}
	}
}

func TestMaskBoundaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, width := range boundaryWidths {
		words := WordsFor(width)
		for trial := 0; trial < 50; trial++ {
			ra := randomRef(rng, width, 0.4)
			rb := randomRef(rng, width, 0.4)
			a, b := maskFromRef(ra, width), maskFromRef(rb, width)

			if got, want := a.Count(), ra.popcount(); got != want {
				t.Fatalf("width %d: Count %d, want %d", width, got, want)
			}
			for i := 0; i < width; i++ {
				if a.Has(i) != ra[i] {
					t.Fatalf("width %d: Has(%d) = %v, want %v", width, i, a.Has(i), ra[i])
				}
			}
			if got, want := a.SubsetOf(b), ra.subsetOf(rb); got != want {
				t.Fatalf("width %d: SubsetOf %v, want %v", width, got, want)
			}

			// Both AND kernels against the oracle.
			want := maskFromRef(ra.and(rb), width)
			dst := make(Mask, words)
			MaskAnd(dst, a, b)
			if !dst.Equal(want) {
				t.Fatalf("width %d: MaskAnd wrong: %v vs %v", width, dst.Bits(), want.Bits())
			}
			dst2 := make(Mask, words)
			nz := MaskAndNotZero(dst2, a, b)
			if !dst2.Equal(want) {
				t.Fatalf("width %d: MaskAndNotZero result wrong", width)
			}
			if nz != (ra.and(rb).popcount() != 0) {
				t.Fatalf("width %d: MaskAndNotZero reported %v for %d-bit result", width, nz, ra.and(rb).popcount())
			}
			if dst.Zero() != (ra.and(rb).popcount() == 0) {
				t.Fatalf("width %d: Zero() inconsistent with popcount", width)
			}
		}
	}
}
