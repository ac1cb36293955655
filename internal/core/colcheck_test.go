package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datasets"
	"repro/internal/order"
	"repro/internal/tle"
)

// columnCheckSizes are the searched-vertex counts that straddle the word
// boundaries of the column index (one index per bit of a cw-word set).
var columnCheckSizes = []int{1, 63, 64, 65, 127, 128, 129}

// rowScanCovered is the brute-force maximality check the column index
// replaces: scan the rows of every index in xs for one containing q.
func rowScanCovered(rows []uint64, width int, xs []uint64, q []uint64) bool {
	for word, x := range xs {
		for ; x != 0; x &= x - 1 {
			k := word*64 + bits.TrailingZeros64(x)
			if bitset.Mask(q).SubsetOf(bitset.Mask(rows[k*width : (k+1)*width])) {
				return true
			}
		}
	}
	return false
}

// TestColumnCheckAgainstRowScan builds random bitmap CGs through the same
// indexing the bitwise procedure uses (bitCG.indexCols) and compares the
// column check with a row scan for random excluded sets and queries: every
// vertex count in columnCheckSizes, mask widths 1–4, CGs with no excluded
// vertices and CGs with only excluded vertices, and excluded sets that
// grow by traversed candidates as a node's does.
func TestColumnCheckAgainstRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	e := newEngine(randomBipartite(t, 1, 4, 4, 8), Options{Variant: Ada}, nil, 0)
	var found, missed int
	for _, n := range columnCheckSizes {
		for width := 1; width <= 4; width++ {
			nL := 64*width - 5
			if width == 1 {
				nL = 40
			}
			lids := make([]int32, nL)
			for _, nx := range []int{0, n / 2, n} {
				nc := n - nx
				rows := make([]uint64, n*width)
				for k := 0; k < n; k++ {
					density := []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
					m := bitset.Mask(rows[k*width : (k+1)*width])
					for b := 0; b < nL; b++ {
						if rng.Float64() < density {
							m.Set(b)
						}
					}
				}
				cand := make([]int32, nc)
				for k := range cand {
					cand[k] = int32(1000 + k)
				}
				cg := &e.cg
				cg.width, cg.lids = width, lids
				idMark, wordMark := e.ids.Mark(), e.words.Mark()
				idx, xs := cg.indexCols(cand, rows[:nc*width], rows[nc*width:], &e.ids, &e.words)
				if len(idx) != nc || cg.cw != bitset.WordsFor(n) {
					t.Fatalf("n=%d width=%d nx=%d: %d indices, cw %d", n, width, nx, len(idx), cg.cw)
				}
				for k := range idx {
					if idx[k] != int32(k) || cg.cand[k] != cand[k] {
						t.Fatalf("n=%d width=%d nx=%d: candidate %d indexed as %d", n, width, nx, k, idx[k])
					}
				}
				for trial := 0; trial < 60; trial++ {
					if trial > 0 && nc > 0 { // a traversed candidate joins the set
						k := rng.Intn(nc)
						xs[k>>6] |= 1 << (uint(k) & 63)
					}
					// Half the queries are subsets of some row, so both
					// outcomes are reached at every density.
					q := make([]uint64, width)
					if trial%2 == 0 {
						k := rng.Intn(n)
						for w := range q {
							q[w] = rows[k*width+w] & rng.Uint64()
						}
					} else {
						for w := range q {
							q[w] = rng.Uint64() & rng.Uint64()
						}
						if width == 1 {
							q[0] &= 1<<nL - 1
						} else {
							q[width-1] &= 1<<59 - 1
						}
					}
					got, ands := bitset.SupersetIn(cg.scratch, xs, cg.cols, cg.cw, q)
					if want := rowScanCovered(rows, width, xs, q); got != want {
						t.Fatalf("n=%d width=%d nx=%d trial %d: column check %v, row scan %v", n, width, nx, trial, got, want)
					}
					if ands > bitset.Mask(q).Count() {
						t.Fatalf("n=%d width=%d nx=%d: %d column ANDs for a %d-bit query", n, width, nx, ands, bitset.Mask(q).Count())
					}
					if got {
						found++
					} else {
						missed++
					}
				}
				empty := make([]uint64, cg.cw)
				if got, ands := bitset.SupersetIn(cg.scratch, empty, cg.cols, cg.cw, rows[:width]); got || ands != 0 {
					t.Fatalf("n=%d width=%d: empty excluded set reported (%v, %d ANDs)", n, width, got, ands)
				}
				e.ids.Release(idMark)
				e.words.Release(wordMark)
			}
		}
	}
	if found == 0 || missed == 0 {
		t.Fatalf("fixtures reach one outcome only: %d covered, %d not", found, missed)
	}
}

// TestBitmapSearchAllocFree requires repeated root bitmap searches on GH to
// allocate nothing once the pooled CG, its column table and the slabs have
// grown. Every growth of the pooled buffers is charged to the memory
// gauge.
func TestBitmapSearchAllocFree(t *testing.T) {
	s, _ := datasets.ByName("GH")
	g := order.Apply(s.Build(), order.DegreeAscending, 0)
	e := newEngine(g, Options{Variant: Ada}, &tle.Shared{}, 0)
	var charged int64
	e.cg.charge = func(bytes int64) { charged += bytes }
	// Every 40th root in ascending degree order: one- and multi-word
	// masks, small and large CGs.
	var roots []int32
	widths := map[int]bool{}
	for v := int32(0); v < int32(g.NV()); v += 40 {
		if d := g.DegV(v); d > 0 && d <= e.tau {
			roots = append(roots, v)
			widths[bitset.WordsFor(d)] = true
		}
	}
	if len(widths) < 2 {
		t.Fatalf("roots cover mask widths %v only", widths)
	}
	pruned := make([]bool, g.NV())
	var rs rootScratch
	search := func() {
		for _, vp := range roots {
			clear(pruned)
			lq := g.NeighborsOfV(vp)
			e.gatherTwoHop(vp, lq, pruned, &rs)
			e.rootChildBit(vp, lq, pruned, &rs)
		}
	}
	search() // grow every pooled buffer
	if e.count == 0 {
		t.Fatal("no biclique found: the roots searched nothing")
	}
	if allocs := testing.AllocsPerRun(3, search); allocs != 0 {
		t.Errorf("%.1f allocations per pass over %d root bitmaps, want 0", allocs, len(roots))
	}
	cg := &e.cg
	if want := 8 * int64(cap(cg.masks)+cap(cg.cols)+cap(cg.scratch)); charged != want {
		t.Errorf("pooled CG charged %d bytes to the gauge, holds %d", charged, want)
	}
}
