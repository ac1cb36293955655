package bitset

import "math/bits"

// Contiguous-stride mask kernels.
//
// The bitwise procedure (internal/core's searchBitPacked) carries every
// candidate mask by value: a block of n masks is n*stride contiguous words,
// each mask already ANDed with the parent's L, and a mask that LN's
// node-pruning rule removed is all-zero. The enumeration hot loops compare
// one query mask q (L_q) against a whole block: split the remaining
// candidates into R_q / C_q, prune the candidates q subsumes. Each kernel
// below answers one of those in a single pass over the block, with q's
// words hoisted into registers once per call.
//
// Every kernel is unswitched on the stride once per call: strides 2, 3 and
// 4 (τ ≤ 256, the configurable fast path) get inner loops whose word
// operations are fully unrolled, any other stride a generic word loop
// (one-word masks run in core's scalar searchBit1 instead). An all-zero
// mask is disjoint from every q, so each kernel drops or skips it like any
// other disjoint mask; no separate "pruned" marker exists.
//
// The maximality check does not scan masks at all. Transpose turns a
// bitmap's rows (one mask per vertex) into a column table (one set of
// vertex indices per mask bit) once per bitmap, and SupersetIn then asks
// "does some excluded vertex's mask contain q" with one AND per bit of q
// over an index set, instead of one AND per excluded mask.

// SmallStrideMax is the widest mask stride (in 64-bit words) with a
// dedicated unrolled kernel; τ up to 64*SmallStrideMax stays on it.
const SmallStrideMax = 4

// Transpose adds the stride-word masks of rows, as vertex indices first,
// first+1, …, to the column table cols: for every bit b set in the k-th
// mask it sets bit first+k of column b, the cw words cols[b*cw:(b+1)*cw].
// cols must hold a column for every bit any mask sets, each wide enough for
// index first+len(rows)/stride-1; columns are ORed into, not cleared.
func Transpose(cols []uint64, cw int, rows []uint64, stride, first int) {
	k := first
	for r := 0; r < len(rows); r += stride {
		word, bit := k>>logWord, uint64(1)<<(uint(k)&wordMask)
		for wi, w := range rows[r : r+stride] {
			for ; w != 0; w &= w - 1 {
				cols[((wi<<logWord)+bits.TrailingZeros64(w))*cw+word] |= bit
			}
		}
		k++
	}
}

// SupersetIn reports whether some vertex index in the set base (cw words)
// has a mask containing every bit of q, given the column table cols built
// by Transpose: it intersects base with column b for each b ∈ q, in bit
// order, narrowing to the live word range after each AND and stopping as
// soon as nothing is left. It returns the number of column ANDs it ran (0
// for an empty base). base is not modified; scratch holds cw words. An
// empty q is contained in every mask, so it reports whether base is
// non-empty.
func SupersetIn(scratch, base, cols []uint64, cw int, q []uint64) (found bool, ands int) {
	lo, hi := 0, cw
	for lo < hi && base[lo] == 0 {
		lo++
	}
	for hi > lo && base[hi-1] == 0 {
		hi--
	}
	src := base
	t := scratch[:cw]
	for wi, qw := range q {
		for ; qw != 0; qw &= qw - 1 {
			if lo == hi {
				return false, ands
			}
			col := cols[((wi<<logWord)+bits.TrailingZeros64(qw))*cw:][:cw]
			ands++
			for k := lo; k < hi; k++ {
				t[k] = src[k] & col[k]
			}
			src = t
			for lo < hi && t[lo] == 0 {
				lo++
			}
			for hi > lo && t[hi-1] == 0 {
				hi--
			}
		}
	}
	return lo < hi, ands
}

// Classify splits the candidate block ms (ids[k] names the k-th mask m)
// against q in one pass, the node-generation step of the bitwise procedure:
//
//   - q ⊆ m: ids[k] is appended to sup (it joins R_q);
//   - otherwise, q ∩ m ≠ ∅: ids[k] is appended to part and q AND m to
//     partMasks at the same stride (it stays a candidate under q);
//   - q ∩ m = ∅, including every all-zero mask: dropped.
//
// With prune set, each non-zero m ⊆ q is then zeroed in place in ms — LN's
// node-pruning rule (its node under the parent would duplicate one inside
// q's subtree) — after it was classified. It returns the number of ids
// written to sup and part and the number of masks zeroed. len(ids) ==
// len(ms)/stride; sup and part hold len(ids) ids, partMasks len(ms) words.
func Classify(q, ms []uint64, stride int, ids, sup, part []int32, partMasks []uint64, prune bool) (nSup, nPart, nPruned int) {
	switch stride {
	case 2:
		q0, q1 := q[0], q[1]
		for k, id := range ids {
			m := ms[2*k : 2*k+2 : 2*k+2]
			a0, a1 := q0&m[0], q1&m[1]
			if a0|a1 == 0 {
				continue
			}
			if a0 == q0 && a1 == q1 {
				sup[nSup] = id
				nSup++
			} else {
				d := partMasks[2*nPart : 2*nPart+2 : 2*nPart+2]
				d[0], d[1] = a0, a1
				part[nPart] = id
				nPart++
			}
			if prune && a0 == m[0] && a1 == m[1] {
				m[0], m[1] = 0, 0
				nPruned++
			}
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		for k, id := range ids {
			m := ms[3*k : 3*k+3 : 3*k+3]
			a0, a1, a2 := q0&m[0], q1&m[1], q2&m[2]
			if a0|a1|a2 == 0 {
				continue
			}
			if a0 == q0 && a1 == q1 && a2 == q2 {
				sup[nSup] = id
				nSup++
			} else {
				d := partMasks[3*nPart : 3*nPart+3 : 3*nPart+3]
				d[0], d[1], d[2] = a0, a1, a2
				part[nPart] = id
				nPart++
			}
			if prune && a0 == m[0] && a1 == m[1] && a2 == m[2] {
				m[0], m[1], m[2] = 0, 0, 0
				nPruned++
			}
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for k, id := range ids {
			m := ms[4*k : 4*k+4 : 4*k+4]
			a0, a1, a2, a3 := q0&m[0], q1&m[1], q2&m[2], q3&m[3]
			if a0|a1|a2|a3 == 0 {
				continue
			}
			if a0 == q0 && a1 == q1 && a2 == q2 && a3 == q3 {
				sup[nSup] = id
				nSup++
			} else {
				d := partMasks[4*nPart : 4*nPart+4 : 4*nPart+4]
				d[0], d[1], d[2], d[3] = a0, a1, a2, a3
				part[nPart] = id
				nPart++
			}
			if prune && a0 == m[0] && a1 == m[1] && a2 == m[2] && a3 == m[3] {
				m[0], m[1], m[2], m[3] = 0, 0, 0, 0
				nPruned++
			}
		}
	default:
		for k, id := range ids {
			m := ms[k*stride : (k+1)*stride]
			d := partMasks[nPart*stride : (nPart+1)*stride]
			var any, qOut, mOut uint64
			for w, mw := range m {
				a := q[w] & mw
				d[w] = a
				any |= a
				qOut |= q[w] ^ a
				mOut |= mw ^ a
			}
			if any == 0 {
				continue
			}
			if qOut == 0 {
				sup[nSup] = id
				nSup++
			} else {
				part[nPart] = id
				nPart++
			}
			if prune && mOut == 0 {
				clear(m)
				nPruned++
			}
		}
	}
	return nSup, nPart, nPruned
}

// PruneSubsets zeroes in place every non-zero mask in ms that q contains
// (m ⊆ q) and returns how many it zeroed: LN's node-pruning rule applied
// for a child q that turned out non-maximal, whose candidates are never
// classified.
func PruneSubsets(q, ms []uint64, stride int) int {
	n := len(ms) / stride
	pruned := 0
	switch stride {
	case 2:
		q0, q1 := q[0], q[1]
		for k := 0; k < n; k++ {
			m := ms[2*k : 2*k+2 : 2*k+2]
			if m[0]|m[1] != 0 && m[0]&^q0|m[1]&^q1 == 0 {
				m[0], m[1] = 0, 0
				pruned++
			}
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		for k := 0; k < n; k++ {
			m := ms[3*k : 3*k+3 : 3*k+3]
			if m[0]|m[1]|m[2] != 0 && m[0]&^q0|m[1]&^q1|m[2]&^q2 == 0 {
				m[0], m[1], m[2] = 0, 0, 0
				pruned++
			}
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for k := 0; k < n; k++ {
			m := ms[4*k : 4*k+4 : 4*k+4]
			if m[0]|m[1]|m[2]|m[3] != 0 && m[0]&^q0|m[1]&^q1|m[2]&^q2|m[3]&^q3 == 0 {
				m[0], m[1], m[2], m[3] = 0, 0, 0, 0
				pruned++
			}
		}
	default:
		for k := 0; k < n; k++ {
			m := ms[k*stride : (k+1)*stride]
			var any, out uint64
			for w, mw := range m {
				any |= mw
				out |= mw &^ q[w]
			}
			if any != 0 && out == 0 {
				clear(m)
				pruned++
			}
		}
	}
	return pruned
}

// MaskAndCount stores a AND b into dst and returns the population count of
// the result in the same pass (fused AND+popcount). Widths must match.
func MaskAndCount(dst, a, b Mask) int {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	n := 0
	for i := range a {
		w := a[i] & b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}
