package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// kernelStrides covers every dedicated unrolled kernel (2–4 words), the
// one-word and wider strides that run the generic loop, and the seam on
// each side.
var kernelStrides = []int{1, 2, 3, 4, 5, 6}

// blockFixture builds a query q and a contiguous block of nMasks masks at
// the given stride, with the per-mask refSet oracle. Mask kinds are mixed
// so every kernel branch is reached: all-zero (a pruned mask), subsets of
// q (prunable), q itself, supersets of q (join R_q / violate maximality),
// and random masks (overlap or disjoint). Width is stride*64 minus a few
// bits so partial-word handling is exercised at strides > 1.
func blockFixture(rng *rand.Rand, stride, nMasks int, qDensity float64) (q []uint64, qRef refSet, ms []uint64, refs []refSet) {
	width := stride*64 - 3
	if stride == 1 {
		width = 64
	}
	qRef = randomRef(rng, width, qDensity)
	refs = make([]refSet, nMasks)
	for k := range refs {
		switch rng.Intn(5) {
		case 0:
			refs[k] = refSet{}
		case 1: // subset of q
			refs[k] = qRef.and(randomRef(rng, width, 0.5))
		case 2:
			refs[k] = qRef.and(qRef)
		case 3: // superset of q
			r := randomRef(rng, width, 0.3)
			for i := range qRef {
				r[i] = true
			}
			refs[k] = r
		default:
			refs[k] = randomRef(rng, width, []float64{0.02, 0.3}[rng.Intn(2)])
		}
	}
	q = make([]uint64, stride)
	for i := range qRef {
		Mask(q).Set(i)
	}
	ms = make([]uint64, stride*nMasks)
	for k, r := range refs {
		m := Mask(ms[k*stride : (k+1)*stride])
		for i := range r {
			m.Set(i)
		}
	}
	return q, qRef, ms, refs
}

// refMask encodes an oracle set as a stride-word mask.
func refMask(r refSet, stride int) []uint64 {
	m := make(Mask, stride)
	for i := range r {
		m.Set(i)
	}
	return m
}

// TestStrideKernelsAgainstOracle checks every contiguous-stride kernel
// against a scalar per-mask oracle on map-backed sets.
func TestStrideKernelsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, stride := range kernelStrides {
		var reached [3]int // pruned, sup, part over all trials
		for trial := 0; trial < 40; trial++ {
			const nMasks = 40
			q, qRef, ms, refs := blockFixture(rng, stride, nMasks, []float64{0.05, 0.3, 0.8}[trial%3])
			ids := make([]int32, nMasks)
			for k := range ids {
				ids[k] = int32(100 + k)
			}

			// Classify, without and with pruning, on copies of the block.
			var wantSup, wantPart []int32
			var wantPartMasks, wantPruned []uint64
			nWantPruned := 0
			for k, r := range refs {
				a := qRef.and(r)
				prunable := r.popcount() != 0 && r.subsetOf(qRef)
				if prunable {
					nWantPruned++
					wantPruned = append(wantPruned, make([]uint64, stride)...)
				} else {
					wantPruned = append(wantPruned, ms[k*stride:(k+1)*stride]...)
				}
				switch {
				case a.popcount() == 0:
				case qRef.subsetOf(r):
					wantSup = append(wantSup, ids[k])
				default:
					wantPart = append(wantPart, ids[k])
					wantPartMasks = append(wantPartMasks, refMask(a, stride)...)
				}
			}
			for _, prune := range []bool{false, true} {
				block := slices.Clone(ms)
				sup := make([]int32, nMasks)
				part := make([]int32, nMasks)
				partMasks := make([]uint64, len(ms))
				ns, np, nz := Classify(q, block, stride, ids, sup, part, partMasks, prune)
				if !slices.Equal(sup[:ns], wantSup) || !slices.Equal(part[:np], wantPart) {
					t.Fatalf("stride %d prune=%v: Classify sup %v part %v, want %v %v",
						stride, prune, sup[:ns], part[:np], wantSup, wantPart)
				}
				if !slices.Equal(partMasks[:np*stride], wantPartMasks) {
					t.Fatalf("stride %d prune=%v: Classify partial masks differ", stride, prune)
				}
				switch {
				case !prune && (nz != 0 || !slices.Equal(block, ms)):
					t.Fatalf("stride %d: Classify without prune zeroed %d masks", stride, nz)
				case prune && (nz != nWantPruned || !slices.Equal(block, wantPruned)):
					t.Fatalf("stride %d: Classify pruned %d masks, want %d (or wrong ones)", stride, nz, nWantPruned)
				}
			}

			// PruneSubsets zeroes exactly the non-zero subsets of q.
			block := slices.Clone(ms)
			if nz := PruneSubsets(q, block, stride); nz != nWantPruned || !slices.Equal(block, wantPruned) {
				t.Fatalf("stride %d: PruneSubsets zeroed %d masks, want %d (or wrong ones)", stride, nz, nWantPruned)
			}
			reached[0] += nWantPruned
			reached[1] += len(wantSup)
			reached[2] += len(wantPart)
		}
		if slices.Contains(reached[:], 0) {
			t.Fatalf("stride %d: fixtures reach too few branches (pruned, sup, part) = %v", stride, reached)
		}
	}
}

// TestStrideKernelsEmptyQuery pins the degenerate query q = ∅: it overlaps
// no mask (Classify keeps nothing), and only the empty mask is its subset
// (nothing is pruned).
func TestStrideKernelsEmptyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, stride := range kernelStrides {
		_, _, ms, _ := blockFixture(rng, stride, 6, 0.3)
		q := make([]uint64, stride)
		ids := make([]int32, 6)
		block := slices.Clone(ms)
		ns, np, nz := Classify(q, block, stride, ids, make([]int32, 6), make([]int32, 6), make([]uint64, len(ms)), true)
		if ns != 0 || np != 0 || nz != 0 || !slices.Equal(block, ms) {
			t.Fatalf("stride %d: Classify on an empty query = (%d, %d, %d)", stride, ns, np, nz)
		}
		if nz := PruneSubsets(q, block, stride); nz != 0 || !slices.Equal(block, ms) {
			t.Fatalf("stride %d: PruneSubsets on an empty query zeroed %d masks", stride, nz)
		}
	}
}

// TestStrideKernelsSkipZeroMasks pins that an all-zero (pruned) mask is
// invisible to every kernel even when it is the only mask in the block.
func TestStrideKernelsSkipZeroMasks(t *testing.T) {
	for _, stride := range kernelStrides {
		q := make([]uint64, stride)
		q[0] = 0b1011
		ms := make([]uint64, 2*stride)
		ns, np, nz := Classify(q, ms, stride, []int32{1, 2}, make([]int32, 2), make([]int32, 2), make([]uint64, len(ms)), true)
		if ns != 0 || np != 0 || nz != 0 {
			t.Fatalf("stride %d: Classify on zero masks = (%d, %d, %d)", stride, ns, np, nz)
		}
		if nz := PruneSubsets(q, ms, stride); nz != 0 {
			t.Fatalf("stride %d: PruneSubsets re-pruned %d zero masks", stride, nz)
		}
	}
}

func TestMaskAndCountAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, width := range boundaryWidths {
		for trial := 0; trial < 30; trial++ {
			ra := randomRef(rng, width, 0.4)
			rb := randomRef(rng, width, 0.4)
			a, b := maskFromRef(ra, width), maskFromRef(rb, width)
			dst := make(Mask, WordsFor(width))
			got := MaskAndCount(dst, a, b)
			want := ra.and(rb)
			if got != want.popcount() {
				t.Fatalf("width %d: MaskAndCount returned %d, want %d", width, got, want.popcount())
			}
			if got2 := dst.Count(); got2 != want.popcount() {
				t.Fatalf("width %d: MaskAndCount dst has %d bits, want %d", width, got2, want.popcount())
			}
		}
	}
}

// TestTransposeColumns checks that every row bit lands in its column,
// rows numbered from an offset, at every kernel stride and at column
// widths on both sides of a word boundary.
func TestTransposeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, stride := range kernelStrides {
		for _, n := range []int{1, 63, 64, 65, 129} {
			const first = 3
			_, _, rows, refs := blockFixture(rng, stride, n, 0.3)
			cw := WordsFor(first + n)
			cols := make([]uint64, 64*stride*cw)
			Transpose(cols, cw, rows, stride, first)
			for b := 0; b < 64*stride; b++ {
				col := Mask(cols[b*cw : (b+1)*cw])
				for k := 0; k < first+n; k++ {
					want := k >= first && refs[k-first][b]
					if col.Has(k) != want {
						t.Fatalf("stride %d n=%d: column %d index %d = %v, want %v", stride, n, b, k, col.Has(k), want)
					}
				}
			}
		}
	}
}

// TestSupersetInEmptyQuery pins the degenerate query q = ∅, which every
// mask contains: SupersetIn reports whether the index set is non-empty
// and runs no column AND.
func TestSupersetInEmptyQuery(t *testing.T) {
	for _, cw := range []int{1, 2, 3} {
		cols := make([]uint64, 64*cw)
		base := make([]uint64, cw)
		q := make([]uint64, 2)
		if found, ands := SupersetIn(make([]uint64, cw), base, cols, cw, q); found || ands != 0 {
			t.Fatalf("cw %d: empty set = (%v, %d)", cw, found, ands)
		}
		base[cw-1] = 1 << 63
		if found, ands := SupersetIn(make([]uint64, cw), base, cols, cw, q); !found || ands != 0 {
			t.Fatalf("cw %d: non-empty set = (%v, %d)", cw, found, ands)
		}
	}
}
