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

func BenchmarkStrideFilterAnd(b *testing.B) {
	for _, stride := range benchStrides {
		b.Run(strideName(stride), func(b *testing.B) {
			q, ms := benchFixture(stride)
			dst := make([]uint64, len(ms))
			b.SetBytes(int64(8 * len(ms)))
			for i := 0; i < b.N; i++ {
				FilterAnd(dst, q, ms, stride)
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
