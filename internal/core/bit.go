package core

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/obs"
)

// bitCG is a bitmap-represented computational subgraph (§III-B): one
// fixed-width bit mask per live V-side vertex, each bit addressing a member
// of the L* set at bitmap-creation time. A CG with |L*| ≤ 64 has one-word
// masks and each intersection is one AND, as in the paper; up to
// 64·bitset.SmallStrideMax bits the unrolled multi-word kernels keep an
// intersection nearly as cheap.
// A bitCG is created once at a node with |L*| ≤ τ, C* ≠ ∅; its mask storage
// is that node's candidate and excluded blocks, which the bitwise procedure
// then carries by value down the subtree. Bitmap subtrees never nest, so
// each engine owns a single bitCG whose storage is recycled across
// creations (reset), keeping steady-state enumeration allocation-free.
//
// The maximality check runs on a column index of the searched bitmap: the
// searched vertices get indices 0..n-1, candidates before excluded
// vertices, and cols holds, for each L* bit, the set of indices whose mask
// has that bit. A node's excluded set is then one cw-word index set, and
// "some excluded vertex contains L_q" is at most |L_q| ANDs of that set
// with columns.
type bitCG struct {
	width int      // words per mask (⌈|L*|/64⌉)
	lids  []int32  // bit position → U id (sorted; equals L*)
	vids  []int32  // CG-local index → V id
	masks []uint64 // len(vids)*width packed masks
	nCand int      // vids[0:nCand] are the creation node's candidates

	cw      int      // words per column: ⌈n/64⌉ for the n searched vertices
	cols    []uint64 // len(lids)*cw: column b is cols[b*cw:(b+1)*cw]
	scratch []uint64 // cw words for bitset.SupersetIn
	cand    []int32  // index → V id for the searched candidates

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
	cg.masks = cg.zeroed(cg.masks, nMasks*width)
}

// zeroed returns buf resized to n zeroed words. When its capacity is
// short it reallocates at least doubling it, so a run whose bitmaps keep
// growing reallocates a logarithmic number of times, and charges the
// growth.
func (cg *bitCG) zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		grown := make([]uint64, n, max(n, 2*cap(buf)))
		cg.charged(cap(buf), cap(grown))
		return grown
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// indexCols builds the column index of a bitmap about to be searched from
// its rows: the candidates cand with masks cm take indices
// 0..len(cand)-1 and the excluded masks xm the indices after them, and the
// table and the check scratch are sized for them. It returns the
// candidates' index list, carved from ids, and the search root's excluded
// set — every excluded mask's index — carved from words.
func (cg *bitCG) indexCols(cand []int32, cm, xm []uint64, ids *slab[int32], words *slab[uint64]) (idx []int32, xs []uint64) {
	nc, n := len(cand), len(cand)+len(xm)/cg.width
	cg.cw = bitset.WordsFor(n)
	cg.cols = cg.zeroed(cg.cols, len(cg.lids)*cg.cw)
	cg.scratch = cg.zeroed(cg.scratch, cg.cw)
	cg.cand = cand
	bitset.Transpose(cg.cols, cg.cw, cm, cg.width, 0)
	bitset.Transpose(cg.cols, cg.cw, xm, cg.width, nc)
	idx = ids.Alloc(nc)
	for k := range idx {
		idx[k] = int32(k)
	}
	xs = words.Alloc(cg.cw)
	clear(xs)
	for k := nc; k < n; {
		word, bit := k>>6, uint(k)&63
		span := min(64-int(bit), n-k)
		xs[word] |= (^uint64(0) >> (64 - uint(span))) << bit
		k += span
	}
	return idx, xs
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
// neighborhoods (Algorithm 2 line 5, reached from the LN procedure below
// the root). No global adjacency is touched: U_bit = L*, V_bit = live
// candidates plus the live excluded set, and each mask is the vertex's
// local neighborhood re-encoded as bits.
func (e *engine) buildBitCGFromLN(L []int32, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32) *bitCG {
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
	return cg
}

// buildBitCGGlobal materializes the bitmap CG from the original adjacency
// lists (the AdaMBE-BIT variant, which has no local-neighborhood cache):
// V_bit = ⋃_{u∈L*} N(u) − R* (§III-B), with the creation node's candidates
// registered first so candidate order is preserved, and every other member
// of V_bit forming the excluded set.
func (e *engine) buildBitCGGlobal(L, R, cand []int32) *bitCG {
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
	return cg
}

// searchBitRoot hands a node over to the bitwise procedure (Algorithm 2,
// lines 4-7) over a freshly built bitmap CG. The builder's storage is
// already laid out as the procedure carries it: candidate V ids with their
// masks first, then the excluded masks, every mask inside L* and so already
// ANDed with the node's L.
func (e *engine) searchBitRoot(cg *bitCG, R []int32) {
	split := cg.nCand * cg.width
	e.searchBitNode(cg, R, cg.vids[:cg.nCand], cg.masks[:split], cg.masks[split:])
}

// searchBitNode runs the bitwise procedure from a bitmap node given as
// rows: cand and cm are its candidates and their masks, xm its excluded
// masks, and cg supplies the mask width and L* (for emission). It builds
// the column index of the maximality check from the rows (indexCols).
// Every builder and every detached bitmap task enters here, so a
// promotion, its bitmap and the SiteBitmap fault site are recorded once per
// bitmap that is searched. One-word CGs (|L*| ≤ 64) dispatch to the scalar
// specialization searchBit1, realizing the paper's "each set intersection
// is a single bitwise AND between two 64-bit integers"; wider masks
// (unrolled kernels up to 64·bitset.SmallStrideMax bits, a generic word
// loop beyond) run searchBitPacked.
func (e *engine) searchBitNode(cg *bitCG, R, cand []int32, cm, xm []uint64) {
	e.notePromotion()
	e.faultStep(SiteBitmap)
	e.observeBitmap(cg.width)
	reg := obs.TraceRegion("mbe/bit-subtree")
	t0, timed := e.enterSmallTimer(len(cg.lids))
	idMark, wordMark := e.ids.Mark(), e.words.Mark()
	idx, xs := cg.indexCols(cand, cm, xm, &e.ids, &e.words)
	if cg.width == 1 {
		e.searchBit1(cg, R, idx, cm, xs)
	} else {
		e.searchBitPacked(cg, R, idx, cm, xs)
	}
	e.ids.Release(idMark)
	e.words.Release(wordMark)
	e.exitSmallTimer(t0, timed)
	reg.End()
}

// searchBit1 is the bitwise procedure specialized to one-word masks, with
// every candidate mask carried by value: cand holds the candidates' column
// indices (cg.cand maps them to V ids) and cm their masks (parallel
// arrays), xs the node's excluded set as a cg.cw-word set of column
// indices. Every mask arrives already ANDed with this node's L, so a
// candidate's mask is its child's L_q. Set intersection is a single AND,
// the subset test a single AND+CMP, and L_q lives in a register.
//
// The maximality check asks whether some excluded vertex's mask contains
// L_q: the CG's excluded vertices and every candidate already traversed
// here or at an ancestor, which is xs once each traversed candidate's index
// is added to it. bitset.SupersetIn answers it with one AND of xs against
// the column of each bit of L_q, stopping as soon as the set is empty. A
// maximal child inherits a copy of xs; excluded vertices disjoint from its
// L_q stay in it and drop out at its first column AND.
//
// With Variant == Ada the procedure also applies LN's node-pruning rule
// (§III-A, rule 3; Algorithm 2 lines 14-15): a later candidate whose mask
// lies inside L_q has N_q(v_c) = N_p(v_c), so the node it would generate
// here duplicates one in L_q's subtree, and its mask is zeroed in place.
// The candidate loop skips zero masks, and a pruned candidate never joins
// xs: any L_q its mask contains, the mask of the traversed candidate that
// pruned it contains too. A maximal child prunes in its classify
// pass, after classifying the candidate into its own R_q / C_q; a
// non-maximal child prunes in a separate sweep. The bitwise tree is then
// exactly LN's. The BIT-alone variant never prunes, matching the paper's
// Fig. 10 ablation.
func (e *engine) searchBit1(cg *bitCG, R []int32, cand []int32, cm, xs []uint64) {
	if e.stop.Stopped() {
		return
	}
	prune := e.variant == Ada
	prev := int32(-1) // index of the last traversed candidate, not yet in xs
	for i := 0; i < len(cand); i++ {
		lq := cm[i]
		if lq == 0 { // pruned at this node
			continue
		}
		if prev >= 0 {
			xs[prev>>6] |= 1 << (uint(prev) & 63)
		}
		prev = cand[i]
		if e.stop.Hit() {
			return
		}
		if e.collect {
			e.metrics.SetIntersections++
		}
		if e.skipChild != nil && e.skipChild(bits.OnesCount64(lq)) {
			continue
		}

		covered, ands := bitset.SupersetIn(cg.scratch, xs, cg.cols, cg.cw, cm[i:i+1])
		rem := len(cand) - i - 1
		e.probe.NodeBit()
		if e.collect {
			e.metrics.SetIntersections += int64(ands)
			e.metrics.NodesGenerated++
		}
		if covered {
			if e.collect {
				e.metrics.NodesNonMaximal++
			}
			if prune {
				np := 0
				for j := i + 1; j < len(cm); j++ {
					if c := cm[j]; c != 0 && c&^lq == 0 {
						cm[j] = 0
						np++
					}
				}
				if e.collect {
					e.metrics.SetIntersections += int64(rem)
					e.metrics.NodesPruned += int64(np)
				}
			}
			continue
		}

		// Node generation: one ids block for R_q and C_q's indices, one
		// words block for C_q's masks and the child's excluded set.
		idMark, wordMark := e.ids.Mark(), e.words.Mark()
		nrCap := len(R) + 1 + rem
		ids := e.ids.Alloc(nrCap + rem)
		rq, cq := ids[:nrCap], ids[nrCap:]
		words := e.words.Alloc(rem + cg.cw)
		cqm, xq := words[:rem], words[rem:]
		nr := copy(rq, R)
		rq[nr] = cg.cand[cand[i]]
		nr++
		nc, np := 0, 0
		for j := i + 1; j < len(cand); j++ {
			c := cm[j]
			and := lq & c
			if and == 0 { // disjoint, or pruned earlier
				continue
			}
			if and == lq { // lq ⊆ mask(cand[j])
				rq[nr] = cg.cand[cand[j]]
				nr++
			} else {
				cq[nc] = cand[j]
				cqm[nc] = and
				nc++
			}
			if prune && and == c {
				cm[j] = 0
				np++
			}
		}

		if e.collect {
			e.metrics.SetIntersections += int64(rem)
			e.metrics.NodesPruned += int64(np)
			e.metrics.NodesMaximal++
			e.metrics.observeNode(bits.OnesCount64(lq), nc)
		}
		e.emitBit1(cg, lq, rq[:nr])
		if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(bits.OnesCount64(lq), nr, nc)) {
			copy(xq, xs)
			e.searchBit1(cg, rq[:nr], cq[:nc], cqm[:nc], xq)
		}
		e.words.Release(wordMark)
		e.ids.Release(idMark)
	}
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

// searchBitPacked is searchBit1 for multi-word masks, with the same
// by-value layout, the same column-index maximality check and the same
// pruning: cm holds the candidates' masks contiguously, cg.width words
// each, in the order of cand. Each phase of a node runs as one
// internal/bitset kernel call: SupersetIn is the maximality check,
// Classify splits the remaining candidates into R_q / C_q (and prunes under
// Ada), and PruneSubsets is the non-maximal child's pruning sweep. The last
// two hoist L_q's words into registers once and dispatch once on the width,
// so τ ∈ (64, 256] stays on unrolled 2–4-word inner loops.
func (e *engine) searchBitPacked(cg *bitCG, R []int32, cand []int32, cm, xs []uint64) {
	if e.stop.Stopped() {
		return
	}
	w := cg.width
	prune := e.variant == Ada
	prev := int32(-1) // index of the last traversed candidate, not yet in xs
	for i := 0; i < len(cand); i++ {
		lq := bitset.Mask(cm[i*w : (i+1)*w])
		if lq.Zero() { // pruned at this node
			continue
		}
		if prev >= 0 {
			xs[prev>>6] |= 1 << (uint(prev) & 63)
		}
		prev = cand[i]
		if e.stop.Hit() {
			return
		}
		if e.collect {
			e.metrics.SetIntersections++
		}
		if e.skipChild != nil && e.skipChild(lq.Count()) {
			continue
		}

		covered, ands := bitset.SupersetIn(cg.scratch, xs, cg.cols, cg.cw, lq)
		rem := len(cand) - i - 1
		rest := cm[(i+1)*w:]
		e.probe.NodeBit()
		if e.collect {
			e.metrics.SetIntersections += int64(ands)
			e.metrics.NodesGenerated++
		}
		if covered {
			if e.collect {
				e.metrics.NodesNonMaximal++
			}
			if prune {
				np := bitset.PruneSubsets(lq, rest, w)
				if e.collect {
					e.metrics.SetIntersections += int64(rem)
					e.metrics.NodesPruned += int64(np)
				}
			}
			continue
		}

		idMark, wordMark := e.ids.Mark(), e.words.Mark()
		nrCap := len(R) + 1 + rem
		ids := e.ids.Alloc(nrCap + rem)
		rq, cq := ids[:nrCap], ids[nrCap:]
		words := e.words.Alloc(len(rest) + cg.cw)
		cqm, xq := words[:len(rest)], words[len(rest):]
		nr := copy(rq, R)
		rq[nr] = cg.cand[cand[i]]
		nr++
		ns, nc, np := bitset.Classify(lq, rest, w, cand[i+1:], rq[nr:], cq, cqm, prune)
		for k, c := range rq[nr : nr+ns] { // Classify copied indices
			rq[nr+k] = cg.cand[c]
		}
		nr += ns

		if e.collect {
			e.metrics.SetIntersections += int64(rem)
			e.metrics.NodesPruned += int64(np)
			e.metrics.NodesMaximal++
			e.metrics.observeNode(lq.Count(), nc)
		}
		e.emitBit(cg, lq, rq[:nr])
		if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(lq.Count(), nr, nc)) {
			copy(xq, xs)
			e.searchBitPacked(cg, rq[:nr], cq[:nc], cqm[:nc*w], xq)
		}
		e.words.Release(wordMark)
		e.ids.Release(idMark)
	}
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
