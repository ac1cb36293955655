package core

import (
	"math/bits"

	"repro/internal/bitset"
)

// bitCG is a bitmap-represented computational subgraph (§III-B): one
// fixed-width bit mask per live V-side vertex, each bit addressing a member
// of the L* set at bitmap-creation time. A CG with |L*| ≤ 64 has one-word
// masks and each intersection is one AND, as in the paper; up to
// 64·bitset.SmallStrideMax bits the unrolled multi-word kernels keep an
// intersection nearly as cheap.
// A bitCG is created once at a node with |L*| ≤ τ, C* ≠ ∅ and reused by
// the entire subtree. Bitmap subtrees never nest, so each engine owns a
// single bitCG whose storage is recycled across creations (reset), keeping
// steady-state enumeration allocation-free.
type bitCG struct {
	width     int      // words per mask (⌈|L*|/64⌉)
	lids      []int32  // bit position → U id (sorted; equals L*)
	vids      []int32  // CG-local index → V id
	masks     []uint64 // len(vids)*width packed masks
	nCand     int      // vids[0:nCand] are the creation node's candidates
	framesBuf []uint64 // per-depth L_q scratch (depth ≤ |L*|), width words each
	rootBuf   []uint64 // the root L_q ("all of L*") for the multi-word path

	// charge, if non-nil, accounts retained-capacity growth (bytes) to the
	// run's memory gauge.
	charge func(bytes int64)
}

func (cg *bitCG) charged(oldCap, newCap int) {
	if cg.charge != nil && newCap > oldCap {
		cg.charge(int64(newCap-oldCap) * 8)
	}
}

// reset prepares the pooled CG for a new subtree: width and L* ids set,
// mask storage for nMasks vertices zeroed, vertex list emptied.
func (cg *bitCG) reset(width int, lids []int32, nMasks int) {
	cg.width = width
	cg.lids = lids
	cg.vids = cg.vids[:0]
	need := nMasks * width
	if cap(cg.masks) < need {
		cg.charged(cap(cg.masks), need)
		cg.masks = make([]uint64, need)
	} else {
		cg.masks = cg.masks[:need]
		clear(cg.masks)
	}
}

// growMask appends storage for one more zeroed mask (global builder path).
// Growth is a single doubling allocation — and a single gauge charge — per
// reallocation, not one word-sized append per mask.
func (cg *bitCG) growMask() {
	need := len(cg.masks) + cg.width
	if need > cap(cg.masks) {
		before := cap(cg.masks)
		grown := make([]uint64, need, max(need, 2*cap(cg.masks)))
		copy(grown, cg.masks)
		cg.masks = grown
		cg.charged(before, cap(cg.masks))
		return
	}
	// Reusing capacity retained from an earlier, larger subtree: the region
	// beyond len may hold that subtree's stale mask bits.
	cg.masks = cg.masks[:need]
	clear(cg.masks[need-cg.width:])
}

func (cg *bitCG) mask(k int32) bitset.Mask {
	return bitset.Mask(cg.masks[int(k)*cg.width : (int(k)+1)*cg.width])
}

func (cg *bitCG) frame(d int) bitset.Mask {
	need := (d + 1) * cg.width
	if cap(cg.framesBuf) < need {
		// One doubling allocation per growth. The prefix holds the live L_q
		// frames of every ancestor depth and must be copied over; the new
		// frame itself needs no zeroing (MaskAnd fully overwrites it).
		before := cap(cg.framesBuf)
		grown := make([]uint64, max(need, 2*cap(cg.framesBuf)))
		copy(grown, cg.framesBuf)
		cg.framesBuf = grown
		cg.charged(before, cap(cg.framesBuf))
	}
	cg.framesBuf = cg.framesBuf[:cap(cg.framesBuf)]
	return bitset.Mask(cg.framesBuf[d*cg.width : (d+1)*cg.width])
}

// maskWidth returns the mask word-width for a bitmap whose L* has lenL
// members: sized to the actual L* normally, padded to τ under PadBitmaps
// (the paper's cost model for Fig. 11).
func (e *engine) maskWidth(lenL int) int {
	if e.padBits {
		return bitset.WordsFor(e.tau)
	}
	return bitset.WordsFor(lenL)
}

// notePromotion records one list-procedure subtree handing off to the
// bitwise procedure (the LN→BIT promotion the τ knob controls).
func (e *engine) notePromotion() {
	e.probe.Promote()
	if e.collect {
		e.metrics.BitPromotions++
	}
}

// observeBitmap records the width histogram row for a freshly built CG.
func (e *engine) observeBitmap(width int) {
	e.probe.Bitmap()
	if e.collect {
		e.metrics.BitmapsCreated++
		b := width - 1
		if b >= len(e.metrics.BitWidthHist) {
			b = len(e.metrics.BitWidthHist) - 1
		}
		e.metrics.BitWidthHist[b]++
	}
}

// buildBitCGFromLN materializes the bitmap CG from a node's cached local
// neighborhoods (Algorithm 2 line 5, reached from the LN procedure). No
// global adjacency is touched: U_bit = L*, V_bit = live candidates plus the
// live excluded set, and each mask is the vertex's local neighborhood
// re-encoded as bits.
func (e *engine) buildBitCGFromLN(L []int32, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32) *bitCG {
	e.faultStep(SiteBitmap)
	epoch := e.stampEpoch()
	for pos, u := range L {
		e.uMark[u] = epoch
		e.uVal[u] = int32(pos)
	}
	width := e.maskWidth(len(L))
	nLive := len(exclIDs)
	for _, vc := range candIDs {
		if vc >= 0 {
			nLive++
		}
	}
	cg := &e.cg
	cg.reset(width, L, nLive)
	k := 0
	fill := func(id int32, nbrs []int32) {
		m := cg.mask(int32(k))
		for _, u := range nbrs {
			m.Set(int(e.uVal[u]))
		}
		cg.vids = append(cg.vids, id)
		k++
	}
	for j, vc := range candIDs {
		if vc >= 0 {
			fill(vc, candNbrs[j])
		}
	}
	cg.nCand = k
	for j, x := range exclIDs {
		fill(x, exclNbrs[j])
	}
	e.observeBitmap(width)
	return cg
}

// buildBitCGGlobal materializes the bitmap CG from the original adjacency
// lists (the AdaMBE-BIT variant, which has no local-neighborhood cache):
// V_bit = ⋃_{u∈L*} N(u) − R* (§III-B), with the creation node's candidates
// registered first so candidate order is preserved, and every other member
// of V_bit forming the excluded set.
func (e *engine) buildBitCGGlobal(L, R, cand []int32) *bitCG {
	e.faultStep(SiteBitmap)
	epoch := e.stampEpoch()
	for pos, u := range L {
		e.uMark[u] = epoch
		e.uVal[u] = int32(pos)
	}
	for _, v := range R {
		e.vMark[v] = epoch
		e.vVal[v] = -1 // R members are excluded from V_bit
	}
	width := e.maskWidth(len(L))
	cg := &e.cg
	cg.reset(width, L, len(cand))
	cg.nCand = len(cand)
	for k, v := range cand {
		e.vMark[v] = epoch
		e.vVal[v] = int32(k)
		cg.vids = append(cg.vids, v)
	}
	for pos, u := range L {
		for _, v := range e.g.NeighborsOfU(u) {
			if e.vMark[v] != epoch {
				e.vMark[v] = epoch
				e.vVal[v] = int32(len(cg.vids))
				cg.vids = append(cg.vids, v)
				cg.growMask()
			}
			k := e.vVal[v]
			if k < 0 {
				continue // member of R*
			}
			cg.masks[int(k)*width+(pos>>6)] |= 1 << (uint(pos) & 63)
		}
	}
	e.observeBitmap(width)
	return cg
}

// searchBitRoot seeds the bitwise procedure over a freshly built bitmap CG:
// L = all of L*, candidates and excluded vertices as laid out by the
// builder. One-word CGs (|L*| ≤ 64) dispatch to the scalar specialization
// searchBit1, realizing the paper's "each set intersection is a single
// bitwise AND between two 64-bit integers". Wider masks (τ up to
// 64·bitset.SmallStrideMax on the unrolled kernels, beyond that on a
// generic word loop) run searchBitPacked over the CG's packed mask storage.
func (e *engine) searchBitRoot(cg *bitCG, R []int32) {
	t0, timed := e.enterSmallTimer(len(cg.lids))
	if cg.width == 1 {
		var root uint64
		if n := len(cg.lids); n >= 64 {
			root = ^uint64(0)
		} else {
			root = (1 << uint(n)) - 1
		}
		// The builder's storage is already laid out as searchBit1 carries
		// it: candidate V ids with their masks first, then the excluded
		// masks.
		e.searchBit1(cg, root, R, cg.vids[:cg.nCand], cg.masks[:cg.nCand], cg.masks[cg.nCand:])
	} else {
		mark := e.ids.Mark()
		cand := e.ids.Alloc(cg.nCand)
		for i := range cand {
			cand[i] = int32(i)
		}
		excl := e.ids.Alloc(len(cg.vids) - cg.nCand)
		for i := range excl {
			excl[i] = int32(cg.nCand + i)
		}
		if cap(cg.rootBuf) < cg.width {
			cg.charged(cap(cg.rootBuf), cg.width)
			cg.rootBuf = make([]uint64, cg.width)
		}
		root := bitset.Mask(cg.rootBuf[:cg.width])
		root.FillLow(len(cg.lids))
		e.searchBitPacked(cg, 0, root, R, cand, excl)
		e.ids.Release(mark)
	}
	e.exitSmallTimer(t0, timed)
}

// searchBit1 is the bitwise procedure specialized to one-word masks, with
// every mask carried by value rather than gathered through a CG index:
// cand holds the candidates' V ids and cm their masks (parallel arrays),
// xm the excluded set's masks (excluded ids are never read). Set
// intersection is a single AND, the subset test a single AND+CMP, and L_q
// lives in a register. Each child receives its candidate and excluded
// masks already ANDed with its L_q and filtered to the non-empty ones, so
// its loops stream contiguous words from e.words. Because L_child ⊆ L_q,
// the pre-ANDed masks answer every later AND and subset test exactly as
// the raw ones would.
func (e *engine) searchBit1(cg *bitCG, lp uint64, R []int32, cand []int32, cm, xm []uint64) {
	if e.stop.Stopped() {
		return
	}
	for i := 0; i < len(cand); i++ {
		if e.stop.Hit() {
			return
		}
		lq := lp & cm[i]
		if e.collect {
			e.metrics.SetIntersections++
		}
		if e.skipChild != nil && e.skipChild(bits.OnesCount64(lq)) {
			continue
		}

		// Node check against the excluded set and the traversed prefix.
		// SetIntersections counts one op per mask inspected.
		maximal := true
		if at := firstSuperset1(lq, xm); at >= 0 {
			maximal = false
			if e.collect {
				e.metrics.SetIntersections += int64(at + 1)
			}
		} else {
			if e.collect {
				e.metrics.SetIntersections += int64(len(xm))
			}
			if at := firstSuperset1(lq, cm[:i]); at >= 0 {
				maximal = false
				if e.collect {
					e.metrics.SetIntersections += int64(at + 1)
				}
			} else if e.collect {
				e.metrics.SetIntersections += int64(i)
			}
		}
		e.probe.NodeBit()
		if e.collect {
			e.metrics.NodesGenerated++
		}
		if !maximal {
			if e.collect {
				e.metrics.NodesNonMaximal++
			}
			continue
		}

		// Node generation: one ids block for R_q and C_q's ids, one words
		// block for C_q's and the child excluded set's masks.
		idMark := e.ids.Mark()
		wordMark := e.words.Mark()
		rem := len(cand) - i - 1
		nrCap := len(R) + 1 + rem
		ids := e.ids.Alloc(nrCap + rem)
		rq, cq := ids[:nrCap], ids[nrCap:]
		nr := copy(rq, R)
		rq[nr] = cand[i]
		nr++
		words := e.words.Alloc(rem + len(xm) + i)
		cqm, xq := words[:rem], words[rem:]
		nc := 0
		if e.collect {
			e.metrics.SetIntersections += int64(rem)
		}
		for j := i + 1; j < len(cand); j++ {
			switch and := lq & cm[j]; {
			case and == lq: // lq ⊆ mask(cand[j])
				rq[nr] = cand[j]
				nr++
			case and != 0:
				cq[nc] = cand[j]
				cqm[nc] = and
				nc++
			}
		}
		nx := 0
		for _, x := range xm {
			if and := lq & x; and != 0 {
				xq[nx] = and
				nx++
			}
		}
		for _, x := range cm[:i] {
			if and := lq & x; and != 0 {
				xq[nx] = and
				nx++
			}
		}

		if e.collect {
			e.metrics.NodesMaximal++
			e.metrics.observeNode(bits.OnesCount64(lq), nc)
		}
		e.emitBit1(cg, lq, rq[:nr])
		if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(bits.OnesCount64(lq), nr, nc)) {
			e.searchBit1(cg, lq, rq[:nr], cq[:nc], cqm[:nc], xq[:nx])
		}
		e.words.Release(wordMark)
		e.ids.Release(idMark)
	}
}

// firstSuperset1 returns the index of the first mask in ms that contains
// every bit of lq, or -1.
func firstSuperset1(lq uint64, ms []uint64) int {
	for k, m := range ms {
		if lq&^m == 0 {
			return k
		}
	}
	return -1
}

// emitBit1 is emitBit for one-word L masks.
func (e *engine) emitBit1(cg *bitCG, lq uint64, R []int32) {
	if e.handler == nil && e.sink == nil {
		e.count++
		e.probe.Biclique()
		return
	}
	mark := e.ids.Mark()
	L := e.ids.Alloc(bits.OnesCount64(lq))
	n := 0
	for w := lq; w != 0; w &= w - 1 {
		L[n] = cg.lids[bits.TrailingZeros64(w)]
		n++
	}
	e.emit(L, R)
	e.ids.Release(mark)
}

// searchBitPacked is the bitwise enumeration procedure (Algorithm 2, lines
// 24-40) for multi-word masks. All vertex sets except R hold CG-local
// indices; every set intersection is a width-word AND. The maximality test
// on line 29 is implemented as the subset check (L_q & N_bit(v”)) == L_q.
//
// Unlike the per-vertex original, each phase of a node runs as ONE batched
// kernel call over the packed mask storage (internal/bitset kernels):
// FirstSupersetPacked sweeps the excluded set for the maximality check,
// ClassifyPacked splits the whole remaining candidate block into R_q / C_q
// in a single pass (replacing the separate subset test and overlap test per
// candidate), and FilterIntersectsPacked builds the child excluded set.
// Each call hoists L_q's words into registers once per block and dispatches
// once on the stride, so τ ∈ (64, 256] stays on unrolled 2–4-word inner
// loops instead of falling back to LN.
func (e *engine) searchBitPacked(cg *bitCG, depth int, lp bitset.Mask, R []int32, cand, excl []int32) {
	if e.stop.Stopped() {
		return
	}
	width := cg.width
	masks := cg.masks
	for i := 0; i < len(cand); i++ {
		if e.stop.Hit() {
			return
		}
		vk := cand[i]
		lq := cg.frame(depth)
		bitset.AndPacked(lq, lp, masks, width, vk)
		if e.collect {
			e.metrics.SetIntersections++
		}
		if e.skipChild != nil && e.skipChild(lq.Count()) {
			continue
		}

		// Node check (lines 27-30): the excluded set is every V_bit vertex
		// outside R ∪ C — the builder's excluded list plus candidates
		// already traversed at this node or an ancestor within the bitmap.
		// SetIntersections counts one op per mask actually inspected, like
		// the early-exiting per-vertex loop it replaces.
		maximal := true
		if at := bitset.FirstSupersetPacked(lq, masks, width, excl); at >= 0 {
			maximal = false
			if e.collect {
				e.metrics.SetIntersections += int64(at + 1)
			}
		} else {
			if e.collect {
				e.metrics.SetIntersections += int64(len(excl))
			}
			if at := bitset.FirstSupersetPacked(lq, masks, width, cand[:i]); at >= 0 {
				maximal = false
				if e.collect {
					e.metrics.SetIntersections += int64(at + 1)
				}
			} else if e.collect {
				e.metrics.SetIntersections += int64(i)
			}
		}
		e.probe.NodeBit()
		if e.collect {
			e.metrics.NodesGenerated++
		}
		if !maximal {
			if e.collect {
				e.metrics.NodesNonMaximal++
			}
			continue
		}

		// Node generation (lines 31-37): classify the remaining candidate
		// block in one batched pass, then split by relation.
		mark := e.ids.Mark()
		rem := len(cand) - i - 1
		rq := e.ids.Alloc(len(R) + 1 + rem)
		nr := copy(rq, R)
		rq[nr] = cg.vids[vk]
		nr++
		cq := e.ids.Alloc(rem)
		nc := 0
		rels := e.relScratch(rem)
		bitset.ClassifyPacked(lq, masks, width, cand[i+1:], rels)
		if e.collect {
			e.metrics.SetIntersections += int64(rem)
		}
		for j, rel := range rels {
			switch rel {
			case bitset.RelSubset:
				rq[nr] = cg.vids[cand[i+1+j]]
				nr++
			case bitset.RelOverlap:
				cq[nc] = cand[i+1+j]
				nc++
			}
		}
		// Child excluded set: previous exclusions plus this node's
		// traversed prefix, filtered to those still overlapping L_q.
		exq := e.ids.Alloc(len(excl) + i)
		nx := bitset.FilterIntersectsPacked(lq, masks, width, excl, exq)
		nx += bitset.FilterIntersectsPacked(lq, masks, width, cand[:i], exq[nx:])

		if e.collect {
			e.metrics.NodesMaximal++
			e.metrics.observeNode(lq.Count(), nc)
		}
		e.emitBit(cg, lq, rq[:nr])
		if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(lq.Count(), nr, nc)) {
			e.searchBitPacked(cg, depth+1, lq, rq[:nr], cq[:nc], exq[:nx])
		}
		e.ids.Release(mark)
	}
}

// relScratch returns a classification buffer of length n. One buffer per
// engine suffices: it is consumed into R_q/C_q before any recursion, so no
// live rels survive a nested searchBitPacked call.
func (e *engine) relScratch(n int) []bitset.Rel {
	if cap(e.rels) < n {
		e.rels = make([]bitset.Rel, max(n, 2*cap(e.rels)))
		e.chargeMem(int64(cap(e.rels)))
	}
	return e.rels[:n]
}

// emitBit reports a maximal biclique found in bitmap mode, materializing
// the L side only when a handler is attached.
func (e *engine) emitBit(cg *bitCG, lq bitset.Mask, R []int32) {
	if e.handler == nil && e.sink == nil {
		e.count++
		e.probe.Biclique()
		return
	}
	mark := e.ids.Mark()
	L := e.ids.Alloc(lq.Count())
	n := 0
	lq.ForEach(func(bit int) {
		L[n] = cg.lids[bit]
		n++
	})
	e.emit(L, R)
	e.ids.Release(mark)
}
