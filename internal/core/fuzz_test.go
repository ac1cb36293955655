package core

import (
	"sort"
	"testing"

	"repro/internal/graph"
)

// graphFromBytes decodes an arbitrary byte string into a small bipartite
// graph: the first two bytes size the sides, each following byte pair is
// an edge. U has 1-16 vertices. V has 1-16 vertices when the second byte
// is below 128 and 17-144 otherwise, wide enough for a bitmap CG whose
// vertex indices cross two 64-bit word boundaries.
func graphFromBytes(data []byte) *graph.Bipartite {
	if len(data) < 2 {
		return nil
	}
	nu := 1 + int(data[0]%16)
	nv := 1 + int(data[1]%16)
	if data[1] >= 128 {
		nv = 17 + int(data[1]-128)
	}
	var edges []graph.Edge
	for i := 2; i+1 < len(data) && len(edges) < 512; i += 2 {
		edges = append(edges, graph.Edge{
			U: int32(int(data[i]) % nu),
			V: int32(int(data[i+1]) % nv),
		})
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		return nil
	}
	return g
}

// wideSeed encodes a graph whose first root's bitmap CG spans n vertices:
// root 0 is adjacent to u0..u3 and every other vertex to one or two of
// them (never all four) plus one of u4..u15, so root 0's two-hop set is
// the n other vertices, all candidates, and the traversed ones fill an
// excluded set whose indices run across the words of the column index.
func wideSeed(n int) []byte {
	nv := n + 1
	data := []byte{15, byte(128 + nv - 17)}
	edge := func(u, v int) { data = append(data, byte(u), byte(v)) }
	for u := 0; u < 4; u++ {
		edge(u, 0)
	}
	for v := 1; v < nv; v++ {
		edge(v%4, v)
		if v%3 == 0 {
			edge((v/4)%4, v)
		}
		edge(4+v%12, v)
	}
	return data
}

// oracleKeys is BruteForceKeys, run on the side-swapped graph when V is
// too wide for the brute force over V subsets (U never is).
func oracleKeys(g *graph.Bipartite) []string {
	if g.NV() <= MaxBruteForceV {
		return BruteForceKeys(g)
	}
	var keys []string
	BruteForce(g.Swapped(), func(L, R []int32) {
		keys = append(keys, BicliqueKey(R, L))
	})
	sort.Strings(keys)
	return keys
}

// FuzzEnumerateAgreement drives every engine variant over arbitrary small
// graphs and checks exact agreement with the brute-force closure oracle —
// the strongest correctness property the package has, fuzz-amplified.
func FuzzEnumerateAgreement(f *testing.F) {
	f.Add([]byte{9, 4, 0, 0, 1, 0, 2, 0, 4, 0, 0, 1, 1, 1, 0, 2, 2, 2})
	f.Add([]byte{1, 1, 0, 0})
	f.Add([]byte{16, 16})
	for _, n := range columnCheckSizes[1:] {
		f.Add(wideSeed(n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g == nil {
			return
		}
		want := oracleKeys(g)
		for _, o := range []Options{
			{Variant: Baseline},
			{Variant: LN},
			{Variant: BIT, Tau: 3},
			{Variant: Ada, Tau: 5},
			{Variant: Ada},
			{Variant: Ada, Threads: 2},
			// Padded masks put every bitmap on a multi-word kernel even on
			// these small graphs: 4 words (unrolled) and 5 (generic).
			{Variant: Ada, Tau: 256, PadBitmaps: true},
			{Variant: Ada, Tau: 320, PadBitmaps: true},
			// Root children detached to other workers as multi-word
			// bitmap nodes.
			{Variant: Ada, Threads: 2, Tau: 256, PadBitmaps: true},
		} {
			got, res, err := CollectKeys(g, o)
			if err != nil {
				t.Fatalf("%v: %v", o.Variant, err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("%v tau=%d threads=%d pad=%v: count %d, want %d (|U|=%d |V|=%d |E|=%d)",
					o.Variant, o.Tau, o.Threads, o.PadBitmaps, res.Count, len(want), g.NU(), g.NV(), g.NumEdges())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: biclique sets differ at %d", o.Variant, i)
				}
			}
		}
	})
}

// TestWideSeedsSpanColumnWords guards the fuzz seeds' purpose: root 0's
// two-hop set is exactly n vertices, none containing N(0), so its bitmap
// searches n candidates over ⌈n/64⌉-word index sets.
func TestWideSeedsSpanColumnWords(t *testing.T) {
	for _, n := range columnCheckSizes[1:] {
		g := graphFromBytes(wideSeed(n))
		l0 := g.NeighborsOfV(0)
		twoHop := map[int32]bool{}
		for _, u := range l0 {
			for _, v := range g.NeighborsOfU(u) {
				if v != 0 {
					twoHop[v] = true
				}
			}
		}
		if len(twoHop) != n {
			t.Fatalf("n=%d: root 0 has a %d-vertex two-hop set", n, len(twoHop))
		}
		for v := range twoHop {
			if isSubset(l0, g.NeighborsOfV(v)) {
				t.Fatalf("n=%d: vertex %d contains N(0), so it is not a candidate", n, v)
			}
		}
	}
}
