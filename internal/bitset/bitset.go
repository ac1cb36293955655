// Package bitset provides dense bit sets and fixed-width bit masks used to
// represent the bitmap form of computational subgraphs (CGs) in AdaMBE.
//
// Two flavours are provided:
//
//   - Set: a growable dense bit set over a vertex universe, used for
//     membership structures on the original graph.
//   - Mask: a fixed-width multi-word mask (width decided once per bitmap CG,
//     width = ceil(|L*|/64) words). With the paper's default threshold
//     τ = 64, every mask is a single uint64 and each set intersection is a
//     single AND, exactly as in the paper (§III-B).
//
// All operations are allocation-free unless documented otherwise.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// WordBits is the number of bits per machine word used by Set and Mask.
	WordBits = 64
	logWord  = 6
	wordMask = WordBits - 1
)

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wordMask) >> logWord
}

// Set is a dense bit set. The zero value is an empty set of capacity 0; use
// New to pre-size it. Sets grow automatically on Add.
type Set struct {
	words []uint64
}

// New returns a Set able to hold members in [0, n) without reallocation.
func New(n int) *Set {
	return &Set{words: make([]uint64, WordsFor(n))}
}

// FromSlice builds a Set containing every id in members.
func FromSlice(members []int) *Set {
	s := &Set{}
	for _, m := range members {
		s.Add(m)
	}
	return s
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	w := make([]uint64, word+1)
	copy(w, s.words)
	s.words = w
}

// Add inserts i into the set, growing the backing storage if needed.
// i must be non-negative.
func (s *Set) Add(i int) {
	w := i >> logWord
	s.grow(w)
	s.words[w] |= 1 << (uint(i) & wordMask)
}

// Remove deletes i from the set. Removing an absent member is a no-op.
func (s *Set) Remove(i int) {
	w := i >> logWord
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) & wordMask)
	}
}

// Contains reports whether i is a member.
func (s *Set) Contains(i int) bool {
	w := i >> logWord
	return w < len(s.words) && s.words[w]&(1<<(uint(i)&wordMask)) != 0
}

// Len returns the number of members (population count).
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes all members while keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ClearSlice removes exactly the listed members; cheaper than Clear when the
// set is sparse relative to its capacity.
func (s *Set) ClearSlice(members []int32) {
	for _, m := range members {
		s.Remove(int(m))
	}
}

// AddSlice inserts every id in members.
func (s *Set) AddSlice(members []int32) {
	for _, m := range members {
		s.Add(int(m))
	}
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IntersectionLen returns |s ∩ o| without materializing the intersection.
func (s *Set) IntersectionLen(o *Set) int {
	n := min(len(s.words), len(o.words))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// SubsetOf reports whether every member of s is also in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		if i >= len(o.words) || w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi << logWord
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &= w - 1
		}
	}
}

// Slice returns the members in ascending order as a fresh slice.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w}
}

// Equal reports whether s and o contain the same members.
func (s *Set) Equal(o *Set) bool {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// String renders the set as "{1, 5, 9}" for debugging and tests.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// Mask is a fixed-width bit mask over a small universe (the L* side of a
// bitmap CG). Masks belonging to the same bitmap CG always share a width, so
// binary operations do not re-check lengths beyond the shared word count.
//
// Masks are plain slices: callers allocate batches of them contiguously via
// MaskArena to keep the per-node footprint cache-friendly.
type Mask []uint64

// MaskAnd stores a AND b into dst. All three must have the same width.
func MaskAnd(dst, a, b Mask) {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i := range a {
		dst[i] = a[i] & b[i]
	}
}

// MaskAndNotZero stores a AND b into dst and reports whether the result is
// non-zero, in one pass.
func MaskAndNotZero(dst, a, b Mask) bool {
	var acc uint64
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i := range a {
		w := a[i] & b[i]
		dst[i] = w
		acc |= w
	}
	return acc != 0
}

// Zero reports whether the mask has no bits set.
func (m Mask) Zero() bool {
	var acc uint64
	for _, w := range m {
		acc |= w
	}
	return acc == 0
}

// Count returns the population count.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether m ⊆ o, i.e. (m AND o) == m.
func (m Mask) SubsetOf(o Mask) bool {
	_ = o[len(m)-1]
	for i, w := range m {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether m and o have identical bits. Widths must match.
func (m Mask) Equal(o Mask) bool {
	_ = o[len(m)-1]
	for i, w := range m {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Set sets bit i.
func (m Mask) Set(i int) { m[i>>logWord] |= 1 << (uint(i) & wordMask) }

// Has reports whether bit i is set.
func (m Mask) Has(i int) bool { return m[i>>logWord]&(1<<(uint(i)&wordMask)) != 0 }

// ForEach calls fn with each set bit index in ascending order.
func (m Mask) ForEach(fn func(i int)) {
	for wi, w := range m {
		base := wi << logWord
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Bits returns the indices of set bits in ascending order (allocates).
func (m Mask) Bits() []int {
	out := make([]int, 0, m.Count())
	m.ForEach(func(i int) { out = append(out, i) })
	return out
}

// CopyFrom copies o into m. Widths must match.
func (m Mask) CopyFrom(o Mask) { copy(m, o) }

// MaskArena hands out fixed-width masks carved from large contiguous blocks,
// amortizing allocation over thousands of masks per enumeration subtree.
// It is not safe for concurrent use; each worker owns its own arena.
type MaskArena struct {
	width int
	block []uint64
	off   int
}

// NewMaskArena returns an arena producing masks of the given word width.
func NewMaskArena(width int) *MaskArena {
	if width <= 0 {
		panic(fmt.Sprintf("bitset: invalid mask width %d", width))
	}
	return &MaskArena{width: width}
}

// Width returns the word width of masks produced by the arena.
func (a *MaskArena) Width() int { return a.width }

const arenaBlockWords = 8192

// New returns a zeroed mask of the arena's width.
func (a *MaskArena) New() Mask {
	if a.off+a.width > len(a.block) {
		n := arenaBlockWords
		if a.width > n {
			n = a.width * 64
		}
		a.block = make([]uint64, n)
		a.off = 0
	}
	m := Mask(a.block[a.off : a.off+a.width : a.off+a.width])
	a.off += a.width
	return m
}
