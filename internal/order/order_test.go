package order

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

func randomGraph(t *testing.T, seed int64, nu, nv, m int) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustAdj(t *testing.T, nu int, rows [][]int32) *graph.Bipartite {
	t.Helper()
	g, err := graph.FromAdjacency(nu, rows)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func isPermutation(p []int32, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, x := range p {
		if x < 0 || int(x) >= n || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

func TestPermutationIsValidForAllKinds(t *testing.T) {
	g := randomGraph(t, 1, 60, 40, 300)
	for _, k := range []Kind{DegreeAscending, Random, UnilateralCore, None} {
		p := Permutation(g, k, 99)
		if !isPermutation(p, g.NV()) {
			t.Fatalf("%v: not a permutation: %v", k, p)
		}
	}
	for i, v := range Permutation(g, None, 99) {
		if v != int32(i) {
			t.Fatalf("None: permutation is not the identity at %d: %d", i, v)
		}
	}
}

func TestDegreeAscendingSorts(t *testing.T) {
	g := graph.PaperExample()
	p := Permutation(g, DegreeAscending, 0)
	degs := make([]int, len(p))
	for i, v := range p {
		degs[i] = g.DegV(v)
	}
	if !sort.IntsAreSorted(degs) {
		t.Fatalf("degrees not ascending: %v", degs)
	}
	// Paper graph degrees: v0=7, v1=3, v2=6, v3=6 → first must be v1.
	if p[0] != 1 {
		t.Fatalf("min-degree vertex = %d, want 1", p[0])
	}
}

func TestDegreeAscendingIsStable(t *testing.T) {
	// v2 and v3 tie at degree 6; stability must keep v2 before v3.
	g := graph.PaperExample()
	p := Permutation(g, DegreeAscending, 0)
	pos := map[int32]int{}
	for i, v := range p {
		pos[v] = i
	}
	if pos[2] > pos[3] {
		t.Fatalf("stable sort violated: pos(v2)=%d pos(v3)=%d", pos[2], pos[3])
	}
}

func TestRandomIsSeededAndDeterministic(t *testing.T) {
	g := randomGraph(t, 2, 30, 30, 200)
	a := Permutation(g, Random, 5)
	b := Permutation(g, Random, 5)
	c := Permutation(g, Random, 6)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different shuffles")
	}
	if !diff {
		t.Fatal("different seeds produced identical shuffles (suspicious)")
	}
}

func TestUnilateralCoreOrdersByCoreness(t *testing.T) {
	// Two disjoint components: a dense K3,3 block (high unilateral core)
	// and three pendant v's each hanging off a private u (core 0).
	rows := [][]int32{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, // dense block, v0..v2
		{3}, {4}, {5}, // pendants, v3..v5
	}
	g := mustAdj(t, 6, rows)
	p := Permutation(g, UnilateralCore, 0)
	// The three pendants (core 0) must precede the dense block (core 2).
	posDense := len(p)
	for i, v := range p {
		if v <= 2 && i < posDense {
			posDense = i
		}
	}
	for i, v := range p {
		if v >= 3 && i > posDense {
			t.Fatalf("pendant v%d ordered after dense block: %v", v, p)
		}
	}
}

func TestUnilateralCoreFallback(t *testing.T) {
	// Force the fallback path by shrinking the budget? The budget is a
	// constant, so instead check the fallback math directly on a graph
	// whose projection is tiny — both paths must yield a valid permutation.
	g := randomGraph(t, 3, 500, 200, 3000)
	p := Permutation(g, UnilateralCore, 0)
	if !isPermutation(p, g.NV()) {
		t.Fatal("UC permutation invalid")
	}
}

func TestApplyPreservesGraph(t *testing.T) {
	g := randomGraph(t, 4, 40, 25, 150)
	for _, k := range []Kind{DegreeAscending, Random, UnilateralCore} {
		ng := Apply(g, k, 11)
		if ng.NumEdges() != g.NumEdges() || ng.NU() != g.NU() || ng.NV() != g.NV() {
			t.Fatalf("%v: Apply changed graph size", k)
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		// Degree multiset must be preserved.
		a, b := make([]int, g.NV()), make([]int, g.NV())
		for v := 0; v < g.NV(); v++ {
			a[v], b[v] = g.DegV(int32(v)), ng.DegV(int32(v))
		}
		sort.Ints(a)
		sort.Ints(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: degree multiset changed", k)
			}
		}
	}
}

func TestOrderEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{DegreeAscending, Random, UnilateralCore} {
		if p := Permutation(g, k, 0); len(p) != 0 {
			t.Fatalf("%v: non-empty permutation for empty graph", k)
		}
	}
}

func TestUnilateralCoreFallbackPath(t *testing.T) {
	// Force the two-hop-degree fallback with a zero budget; the result
	// must still be a usable coreness vector (orderable, right length) and
	// must rank an isolated pendant below a dense block, like the exact
	// peeling does.
	rows := [][]int32{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, // dense block v0..v2
		{3}, // pendant v3
	}
	g := mustAdj(t, 4, rows)
	exact := unilateralCorenessBudget(g, 1<<30)
	approx := unilateralCorenessBudget(g, 0)
	if len(exact) != 4 || len(approx) != 4 {
		t.Fatalf("lengths: %d, %d", len(exact), len(approx))
	}
	if approx[3] >= approx[0] {
		t.Fatalf("fallback ranks pendant (%d) above dense block (%d)", approx[3], approx[0])
	}
	if exact[3] >= exact[0] {
		t.Fatalf("exact ranks pendant (%d) above dense block (%d)", exact[3], exact[0])
	}
}

func TestUnilateralCoreFallbackSaturates(t *testing.T) {
	// A vertex whose two-hop degree overflows the int32 cap must saturate,
	// not wrap. Construct: one v adjacent to a single huge-degree u is not
	// feasible at test scale, so call the budgeted variant directly on a
	// modest star and just check non-negative outputs.
	rows := [][]int32{{0}, {0}, {0}}
	g := mustAdj(t, 1, rows)
	for _, c := range unilateralCorenessBudget(g, 0) {
		if c < 0 {
			t.Fatalf("negative coreness %d", c)
		}
	}
}
