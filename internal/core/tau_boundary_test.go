package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// tauBoundaryValues straddle every mask word boundary the unrolled kernels
// care about: exactly one/two/four words and one bit either side, then the
// generic kernel just past the unrolled ones (257) and at five full words.
var tauBoundaryValues = []int{64, 65, 127, 128, 129, 255, 256, 257, 320}

// denseBipartite builds a graph whose root subproblems have |L| large
// enough to exercise multi-word bitmaps: nu U-side vertices, nv V-side,
// each V vertex connected to a random ~frac of U. nv stays under
// MaxBruteForceV so the oracle is available.
func denseBipartite(t testing.TB, seed int64, nu, nv int, frac float64) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 0; v < nv; v++ {
		for u := 0; u < nu; u++ {
			if rng.Float64() < frac {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTauWordBoundariesAgainstOracle sweeps τ across the 1/2/3/4-word mask
// boundaries on graphs whose |L| actually reaches those widths, for both
// the serial and parallel engines, and checks the enumerated set (not just
// the count) against the brute-force oracle.
func TestTauWordBoundariesAgainstOracle(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Bipartite
	}{
		// deg(v) ≈ 90: promotions at τ ≥ 65 build 2-word masks.
		{"nu=150", denseBipartite(t, 11, 150, 10, 0.6)},
		// deg(v) ≈ 170: τ = 255/256 promotions build 3–4-word masks.
		{"nu=340", denseBipartite(t, 13, 340, 9, 0.5)},
		// deg(v) ≈ 300: |L| exceeds 256 at the root's children, so
		// τ = 257/320 promotions build 5-word masks (generic kernel).
		{"nu=600", denseBipartite(t, 17, 600, 9, 0.5)},
	}
	for _, gr := range graphs {
		want := BruteForceKeys(gr.g)
		if len(want) == 0 {
			t.Fatalf("%s: oracle found nothing; fixture too sparse", gr.name)
		}
		for _, tau := range tauBoundaryValues {
			for _, threads := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/tau=%d/threads=%d", gr.name, tau, threads)
				var m Metrics
				o := Options{Variant: Ada, Tau: tau, Threads: threads, Metrics: &m}
				got, res, err := CollectKeys(gr.g, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Count != int64(len(want)) || !keysEqual(got, want) {
					t.Fatalf("%s: got %d bicliques, want %d (sets differ: %v)",
						name, res.Count, len(want), !keysEqual(got, want))
				}
				// Vacuity guard: the sweep must actually reach the bitmap
				// path, otherwise it only retests LN.
				if m.BitPromotions == 0 {
					t.Fatalf("%s: no LN→BIT promotions; boundary not exercised", name)
				}
			}
		}
	}

	// The big fixture at τ = 256 must build masks wider than one word —
	// this pins the histogram too, so a silent fall-back to the scalar
	// path can't pass the sweep.
	var m Metrics
	if _, _, err := CollectKeys(graphs[1].g, Options{Variant: Ada, Tau: 256, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	multi := m.BitWidthHist[1] + m.BitWidthHist[2] + m.BitWidthHist[3] + m.BitWidthHist[4]
	if multi == 0 {
		t.Fatalf("tau=256 on nu=340 built only 1-word bitmaps: hist %v", m.BitWidthHist)
	}
	// Likewise τ = 320 on the widest fixture must reach the generic kernel.
	m = Metrics{}
	if _, _, err := CollectKeys(graphs[2].g, Options{Variant: Ada, Tau: 320, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if wide := m.BitWidthHist[len(m.BitWidthHist)-1]; wide == 0 {
		t.Fatalf("tau=320 on nu=600 built no masks wider than 4 words: hist %v", m.BitWidthHist)
	}
}

// tauRootsBipartite builds a graph whose first root child has |L'| = τ
// exactly (V0 = U[0, τ)) and whose second has τ + 1 (V1 = U[1, τ+1]), so
// the root loop builds one as a bitmap and the other as LN lists; the
// remaining V vertices connect to a random half of U.
func tauRootsBipartite(t testing.TB, seed int64, tau int) *graph.Bipartite {
	t.Helper()
	const nv = 10
	nu := tau + 40
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := 0; u < nu; u++ {
		if u < tau {
			edges = append(edges, graph.Edge{U: int32(u), V: 0})
		}
		if u >= 1 && u <= tau+1 {
			edges = append(edges, graph.Edge{U: int32(u), V: 1})
		}
		for v := 2; v < nv; v++ {
			if rng.Float64() < 0.5 {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTauRootBoundary checks the root loop on both sides of τ against the
// brute-force oracle, serial and parallel: a root child with |N(v')| = τ
// is built straight into a bitmap (one promotion for the whole root
// subtree, at the root's own mask width), and one with τ + 1 is built as
// LN lists whose children promote one by one.
func TestTauRootBoundary(t *testing.T) {
	for _, tau := range tauBoundaryValues {
		g := tauRootsBipartite(t, int64(tau), tau)
		want := BruteForceKeys(g)
		for _, threads := range []int{1, 2} {
			name := fmt.Sprintf("tau=%d/threads=%d", tau, threads)
			got, res, err := CollectKeys(g, Options{Variant: Ada, Tau: tau, Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Count != int64(len(want)) || !keysEqual(got, want) {
				t.Fatalf("%s: got %d bicliques, want %d", name, res.Count, len(want))
			}

			var bit, ln Metrics
			if _, err := Enumerate(g, Options{Variant: Ada, Tau: tau, Threads: threads, StartRoot: 0, EndRoot: 1, Metrics: &bit}); err != nil {
				t.Fatal(err)
			}
			width := min(bitset.WordsFor(tau), len(bit.BitWidthHist))
			if bit.BitPromotions != 1 || bit.BitmapsCreated != 1 || bit.BitWidthHist[width-1] != 1 {
				t.Fatalf("%s: |L'| = τ root: %d promotions, width hist %v; want one %d-word root bitmap",
					name, bit.BitPromotions, bit.BitWidthHist, width)
			}
			if _, err := Enumerate(g, Options{Variant: Ada, Tau: tau, Threads: threads, StartRoot: 1, EndRoot: 2, Metrics: &ln}); err != nil {
				t.Fatal(err)
			}
			if ln.BitPromotions < 2 {
				t.Fatalf("%s: |L'| = τ+1 root: %d promotions; want an LN root with several promoted children",
					name, ln.BitPromotions)
			}
		}
	}
}
