package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: the per-word cost of the contiguous-stride
// kernels at the unrolled strides and the first generic one. Run via
// `make bench-kernels`. The interesting comparisons:
//
//	stride sweep 2/3/4/5 — word-width scaling, and the unrolled→generic seam
//	BenchmarkMaskAndCount vs BenchmarkMaskAndThenCount — fusion win

const benchMasks = 256

var benchStrides = []int{2, 3, 4, 5}

// benchFixture returns a random query and a block of benchMasks random
// masks. Masks and query are ~50% dense, so supersets and subsets of the
// query are vanishingly rare: the kernels scan the whole block (no
// maximality violation, nothing pruned), the maximal-node case.
func benchFixture(stride int) (q, ms []uint64) {
	rng := rand.New(rand.NewSource(42))
	ms = make([]uint64, stride*benchMasks)
	for i := range ms {
		ms[i] = rng.Uint64()
	}
	q = make([]uint64, stride)
	for i := range q {
		q[i] = rng.Uint64()
	}
	return q, ms
}

func strideName(stride int) string { return fmt.Sprintf("words=%d", stride) }

// BenchmarkStrideColumnCheck is the maximality check of the bitwise
// procedure: benchMasks stride-word masks transposed into a column table,
// every index in the excluded set, and a query that no mask contains, so
// the check runs until the intersection empties (the maximal-node case).
func BenchmarkStrideColumnCheck(b *testing.B) {
	for _, stride := range benchStrides {
		b.Run(strideName(stride), func(b *testing.B) {
			q, ms := benchFixture(stride)
			cw := WordsFor(benchMasks)
			cols := make([]uint64, 64*stride*cw)
			Transpose(cols, cw, ms, stride, 0)
			base := make([]uint64, cw)
			for k := range base {
				base[k] = ^uint64(0)
			}
			scratch := make([]uint64, cw)
			b.SetBytes(int64(8 * len(ms)))
			for i := 0; i < b.N; i++ {
				if found, _ := SupersetIn(scratch, base, cols, cw, q); found {
					b.Fatal("a random mask contains the half-dense query")
				}
			}
		})
	}
}

// BenchmarkStrideTranspose is the once-per-bitmap cost of building the
// column table from benchMasks masks.
func BenchmarkStrideTranspose(b *testing.B) {
	for _, stride := range benchStrides {
		b.Run(strideName(stride), func(b *testing.B) {
			_, ms := benchFixture(stride)
			cw := WordsFor(benchMasks)
			cols := make([]uint64, 64*stride*cw)
			b.SetBytes(int64(8 * len(ms)))
			for i := 0; i < b.N; i++ {
				clear(cols)
				Transpose(cols, cw, ms, stride, 0)
			}
		})
	}
}

func BenchmarkStrideClassify(b *testing.B) {
	for _, stride := range benchStrides {
		b.Run(strideName(stride), func(b *testing.B) {
			q, ms := benchFixture(stride)
			ids := make([]int32, benchMasks)
			sup := make([]int32, benchMasks)
			part := make([]int32, benchMasks)
			partMasks := make([]uint64, len(ms))
			b.SetBytes(int64(8 * len(ms)))
			for i := 0; i < b.N; i++ {
				Classify(q, ms, stride, ids, sup, part, partMasks, true)
			}
		})
	}
}

func BenchmarkStridePruneSubsets(b *testing.B) {
	for _, stride := range benchStrides {
		b.Run(strideName(stride), func(b *testing.B) {
			q, ms := benchFixture(stride)
			b.SetBytes(int64(8 * len(ms)))
			for i := 0; i < b.N; i++ {
				PruneSubsets(q, ms, stride)
			}
		})
	}
}

func BenchmarkMaskAndCount(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			q, ms := benchFixture(stride)
			dst := make(Mask, stride)
			m := Mask(ms[:stride])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MaskAndCount(dst, Mask(q), m)
			}
		})
	}
}

// BenchmarkMaskAndThenCount is the unfused shape: AND into dst, then a
// second pass to popcount it.
func BenchmarkMaskAndThenCount(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			q, ms := benchFixture(stride)
			dst := make(Mask, stride)
			m := Mask(ms[:stride])
			var sink int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MaskAnd(dst, Mask(q), m)
				sink += dst.Count()
			}
			_ = sink
		})
	}
}
