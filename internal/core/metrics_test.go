package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/order"
)

func TestMetricsBaselineCountsOutsideAccesses(t *testing.T) {
	g := randomBipartite(t, 31, 80, 25, 500)
	var m Metrics
	if _, err := Enumerate(g, Options{Variant: Baseline, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.NodesGenerated == 0 || m.SetIntersections == 0 {
		t.Fatalf("no instrumentation recorded: %+v", m)
	}
	if m.NodesGenerated != m.NodesMaximal+m.NodesNonMaximal {
		t.Fatalf("node counts inconsistent: %d != %d + %d",
			m.NodesGenerated, m.NodesMaximal, m.NodesNonMaximal)
	}
	if m.AccessesOutsideCG == 0 {
		t.Fatal("Baseline recorded zero outside-CG accesses (Fig. 5 would be empty)")
	}
	if m.NodesPruned != 0 {
		t.Fatal("Baseline must not prune (LN disabled)")
	}
}

func TestMetricsLNHasNoOutsideAccessesAndPrunes(t *testing.T) {
	g := randomBipartite(t, 31, 80, 25, 500)
	var base, ln Metrics
	if _, err := Enumerate(g, Options{Variant: Baseline, Metrics: &base}); err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate(g, Options{Variant: LN, Metrics: &ln}); err != nil {
		t.Fatal(err)
	}
	if ln.AccessesOutsideCG != 0 {
		t.Fatalf("LN recorded %d outside-CG accesses, want 0 (§III-A)", ln.AccessesOutsideCG)
	}
	// The Fig. 10c claim: LN reduces nodes with non-maximal bicliques.
	if ln.NodesNonMaximal > base.NodesNonMaximal {
		t.Fatalf("LN non-maximal nodes %d > Baseline %d", ln.NodesNonMaximal, base.NodesNonMaximal)
	}
	// Counts of *maximal* nodes are identical (same biclique set).
	if ln.NodesMaximal != base.NodesMaximal {
		t.Fatalf("maximal node counts differ: LN %d vs Baseline %d", ln.NodesMaximal, base.NodesMaximal)
	}
}

func TestMetricsBitCreatesBitmaps(t *testing.T) {
	g := randomBipartite(t, 31, 80, 25, 500)
	var m Metrics
	if _, err := Enumerate(g, Options{Variant: BIT, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.BitmapsCreated == 0 {
		t.Fatal("BIT created no bitmaps on a graph with small CGs")
	}
	var ada Metrics
	if _, err := Enumerate(g, Options{Variant: Ada, Metrics: &ada}); err != nil {
		t.Fatal(err)
	}
	if ada.BitmapsCreated == 0 {
		t.Fatal("Ada created no bitmaps")
	}
}

func TestMetricsCGHistogramPopulated(t *testing.T) {
	g := randomBipartite(t, 31, 80, 25, 500)
	var m Metrics
	if _, err := Enumerate(g, Options{Variant: Baseline, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := range m.CGHist {
		for j := range m.CGHist[i] {
			total += m.CGHist[i][j]
		}
	}
	// Every maximal node plus the root is observed.
	if total != m.NodesMaximal+1 {
		t.Fatalf("histogram total %d, want %d", total, m.NodesMaximal+1)
	}
}

func TestMetricsSmallLargeTimeSplit(t *testing.T) {
	g := randomBipartite(t, 31, 200, 40, 1200)
	var m Metrics
	if _, err := Enumerate(g, Options{Variant: BIT, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.SmallNodeTime < 0 || m.LargeNodeTime < 0 {
		t.Fatalf("negative time split: small=%v large=%v", m.SmallNodeTime, m.LargeNodeTime)
	}
	if m.SmallNodeTime == 0 && m.BitmapsCreated > 0 {
		// Bitmap subtrees are timed as small; with bitmaps created the
		// small time cannot be exactly zero on a monotonic clock... but
		// very fast runs may round to 0; only require non-negative total.
		t.Logf("small-node time rounded to zero (%d bitmaps)", m.BitmapsCreated)
	}
}

func TestMetricsParallelMerge(t *testing.T) {
	g := randomBipartite(t, 31, 120, 30, 800)
	var serial, par Metrics
	if _, err := Enumerate(g, Options{Variant: Ada, Metrics: &serial}); err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate(g, Options{Variant: Ada, Threads: 4, Metrics: &par}); err != nil {
		t.Fatal(err)
	}
	// The set of maximal nodes is identical regardless of scheduling.
	if par.NodesMaximal != serial.NodesMaximal {
		t.Fatalf("parallel maximal nodes %d, serial %d", par.NodesMaximal, serial.NodesMaximal)
	}
}

func TestHistBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 31: 4, 32: 5, 1 << 20: 20, 1 << 25: 20}
	for n, want := range cases {
		if got := histBucket(n); got != want {
			t.Fatalf("histBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestHistBucketPowerBoundaries pins the bucket function at every power-of-
// two edge: 2^k−1 stays in bucket k−1, 2^k opens bucket k, and everything
// at or beyond 2^20 saturates into the top bucket.
func TestHistBucketPowerBoundaries(t *testing.T) {
	for k := 1; k <= 30; k++ {
		below, at := (1<<k)-1, 1<<k
		wantBelow := min(k-1, CGHistBuckets-1)
		wantAt := min(k, CGHistBuckets-1)
		if got := histBucket(below); got != wantBelow {
			t.Fatalf("histBucket(2^%d-1) = %d, want %d", k, got, wantBelow)
		}
		if got := histBucket(at); got != wantAt {
			t.Fatalf("histBucket(2^%d) = %d, want %d", k, got, wantAt)
		}
	}
}

// TestObserveNodeBoundaries drops boundary (|L|, |C|) pairs into the joint
// histogram and checks each lands in exactly the expected cell.
func TestObserveNodeBoundaries(t *testing.T) {
	cases := []struct{ lenL, lenC, wantI, wantJ int }{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
		{63, 64, 5, 6},
		{64, 63, 6, 5},
		{(1 << 20) - 1, 1 << 20, 19, 20},
		{1 << 20, 1 << 22, 20, 20},
	}
	for _, c := range cases {
		var m Metrics
		m.observeNode(c.lenL, c.lenC)
		for i := range m.CGHist {
			for j := range m.CGHist[i] {
				want := int64(0)
				if i == c.wantI && j == c.wantJ {
					want = 1
				}
				if m.CGHist[i][j] != want {
					t.Fatalf("observeNode(%d, %d): cell [%d][%d] = %d, expected hit at [%d][%d]",
						c.lenL, c.lenC, i, j, m.CGHist[i][j], c.wantI, c.wantJ)
				}
			}
		}
	}
}

// randomMetrics fills a Metrics with deterministic pseudo-random counters,
// standing in for one parallel worker's gathered instrumentation.
func randomMetrics(rng *rand.Rand) *Metrics {
	m := &Metrics{
		NodesGenerated:    rng.Int63n(1000),
		NodesMaximal:      rng.Int63n(1000),
		NodesNonMaximal:   rng.Int63n(1000),
		NodesPruned:       rng.Int63n(1000),
		AccessesInsideCG:  rng.Int63n(1000),
		AccessesOutsideCG: rng.Int63n(1000),
		SetIntersections:  rng.Int63n(1000),
		SmallNodeTime:     time.Duration(rng.Int63n(1e9)),
		LargeNodeTime:     time.Duration(rng.Int63n(1e9)),
		BitmapsCreated:    rng.Int63n(1000),
		TasksSpawned:      rng.Int63n(1000),
		TasksStolen:       rng.Int63n(1000),
		TasksInlined:      rng.Int63n(1000),
		MaxQueueDepth:     rng.Int63n(64),
	}
	for i := 0; i < 40; i++ {
		m.CGHist[rng.Intn(CGHistBuckets)][rng.Intn(CGHistBuckets)] += rng.Int63n(50)
	}
	return m
}

// TestMergeOrderIndependent: merging per-worker metrics must be order-
// independent (commutative and associative), or parallel runs would report
// schedule-dependent instrumentation. Simulated by merging the same worker
// set in shuffled orders and in different groupings.
func TestMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	workers := make([]*Metrics, 6)
	for i := range workers {
		workers[i] = randomMetrics(rng)
	}

	mergeAll := func(order []int) Metrics {
		var total Metrics
		for _, i := range order {
			total.merge(workers[i])
		}
		return total
	}

	base := mergeAll([]int{0, 1, 2, 3, 4, 5})
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(workers))
		if got := mergeAll(order); got != base {
			t.Fatalf("merge is order-dependent: order %v gave %+v, want %+v", order, got, base)
		}
	}

	// Associativity: ((a+b)+c) == (a+(b+c)) via pre-merged subgroups.
	var left, lgroup Metrics
	lgroup.merge(workers[0])
	lgroup.merge(workers[1])
	left.merge(&lgroup)
	left.merge(workers[2])
	var right, rgroup Metrics
	rgroup.merge(workers[1])
	rgroup.merge(workers[2])
	right.merge(workers[0])
	right.merge(&rgroup)
	if left != right {
		t.Fatalf("merge is not associative: %+v vs %+v", left, right)
	}
}

// Property: pruning never changes the enumerated count (testing/quick over
// random adjacency structures).
func TestQuickLNPruningPreservesCounts(t *testing.T) {
	f := func(rows [6][]uint8) bool {
		adj := make([][]int32, 6)
		for i, row := range rows {
			for _, x := range row {
				adj[i] = append(adj[i], int32(x%20))
			}
		}
		g, err := graph.FromAdjacency(20, adj)
		if err != nil {
			return false
		}
		a, err1 := Enumerate(g, Options{Variant: Baseline})
		b, err2 := Enumerate(g, Options{Variant: LN})
		return err1 == nil && err2 == nil && a.Count == b.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: τ is a pure performance knob — counts are τ-invariant.
func TestQuickTauInvariance(t *testing.T) {
	f := func(rows [5][]uint8, tauSeed uint8) bool {
		adj := make([][]int32, 5)
		for i, row := range rows {
			for _, x := range row {
				adj[i] = append(adj[i], int32(x%30))
			}
		}
		g, err := graph.FromAdjacency(30, adj)
		if err != nil {
			return false
		}
		tau := 1 + int(tauSeed)%140
		a, err1 := Enumerate(g, Options{Variant: Ada})
		b, err2 := Enumerate(g, Options{Variant: Ada, Tau: tau})
		return err1 == nil && err2 == nil && a.Count == b.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestBitWorkCountersGoldenGH pins the work AdaMBE does at the paper's τ
// on the GH dataset (ascending order). Count and NodesMaximal are the
// biclique total; the node goldens were recorded when the bitwise
// procedure started applying LN's node-pruning rule inside bitmaps, which
// cut the generated nodes from 8,763,050 to LN's tree (TestAdaVisitsLNTree).
// SetIntersections counts the maximality check's column ANDs (see
// Metrics.SetIntersections). Any drift means the kernels visit, prune or
// intersect differently, not just faster.
func TestBitWorkCountersGoldenGH(t *testing.T) {
	s, _ := datasets.ByName("GH")
	g := order.Apply(s.Build(), order.DegreeAscending, 0)
	var m Metrics
	res, err := Enumerate(g, Options{Variant: Ada, Tau: PaperTau, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Count", res.Count, 350112},
		{"NodesGenerated", m.NodesGenerated, 845633},
		{"NodesMaximal", m.NodesMaximal, 350112},
		{"NodesNonMaximal", m.NodesNonMaximal, 495521},
		{"NodesPruned", m.NodesPruned, 1871552},
		{"SetIntersections", m.SetIntersections, 83024139},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.NodesGenerated != m.NodesMaximal+m.NodesNonMaximal {
		t.Errorf("NodesGenerated %d != NodesMaximal %d + NodesNonMaximal %d",
			m.NodesGenerated, m.NodesMaximal, m.NodesNonMaximal)
	}
}

// TestRootBitmapCountersGoldenGH pins the work AdaMBE charges at the
// default τ on GH (ascending order), where every root child is built
// straight into a bitmap from adjacency and, with two threads, detached to
// other workers as a bitmap node. The goldens were recorded when root
// children were still built as LN lists and re-encoded as bits: the
// adjacency build must charge one set intersection and the same accesses
// per classified vertex, and promote, build and prune exactly as before.
func TestRootBitmapCountersGoldenGH(t *testing.T) {
	s, _ := datasets.ByName("GH")
	g := order.Apply(s.Build(), order.DegreeAscending, 0)
	for _, threads := range []int{1, 2} {
		var m Metrics
		res, err := Enumerate(g, Options{Variant: Ada, Threads: threads, Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"Count", res.Count, 350112},
			{"NodesGenerated", m.NodesGenerated, 845633},
			{"NodesPruned", m.NodesPruned, 1871552},
			{"SetIntersections", m.SetIntersections, 50010996},
			{"AccessesInsideCG", m.AccessesInsideCG, 186043798},
			{"AccessesOutsideCG", m.AccessesOutsideCG, 0},
			{"BitPromotions", m.BitPromotions, 2187},
			{"BitmapsCreated", m.BitmapsCreated, 2187},
		} {
			if c.got != c.want {
				t.Errorf("threads=%d: %s = %d, want %d", threads, c.name, c.got, c.want)
			}
		}
		if want := [5]int64{1510, 654, 23, 0, 0}; m.BitWidthHist != want {
			t.Errorf("threads=%d: BitWidthHist = %v, want %v", threads, m.BitWidthHist, want)
		}
	}
}

// TestAdaVisitsLNTree is the metamorphic check on bitmap pruning: AdaMBE's
// bitwise procedure applies LN's node-pruning rule at every mask width, so
// switching a subtree from lists to bitmaps must not change the tree.
// Ada's node and prune counters must equal LN's at the paper's τ, the
// default τ, a τ above every subtree's |L| and under padded masks (τ = 256
// with PadBitmaps puts every bitmap on the 4-word kernel).
func TestAdaVisitsLNTree(t *testing.T) {
	graphs := map[string]func() *graph.Bipartite{"paper-example": graph.PaperExample}
	for _, name := range []string{"UF", "TM", "SO", "GH"} {
		s, ok := datasets.ByName(name)
		if !ok {
			t.Fatalf("dataset %s missing", name)
		}
		graphs[name] = func() *graph.Bipartite { return order.Apply(s.Build(), order.DegreeAscending, 0) }
	}
	type tree struct{ generated, maximal, nonMaximal, pruned int64 }
	treeOf := func(m *Metrics) tree {
		return tree{m.NodesGenerated, m.NodesMaximal, m.NodesNonMaximal, m.NodesPruned}
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := build()
			var ln Metrics
			if _, err := Enumerate(g, Options{Variant: LN, Metrics: &ln}); err != nil {
				t.Fatal(err)
			}
			want := treeOf(&ln)
			for _, o := range []Options{
				{Tau: PaperTau},
				{Tau: DefaultTau},
				{Tau: 1024},
				{Tau: 256, PadBitmaps: true},
			} {
				var m Metrics
				o.Variant, o.Metrics = Ada, &m
				if _, err := Enumerate(g, o); err != nil {
					t.Fatal(err)
				}
				if m.BitPromotions == 0 {
					t.Fatalf("tau=%d pad=%v: no bitmap promotions; the check is vacuous", o.Tau, o.PadBitmaps)
				}
				if got := treeOf(&m); got != want {
					t.Errorf("tau=%d pad=%v: Ada tree (generated, maximal, non-maximal, pruned) = %+v, LN = %+v",
						o.Tau, o.PadBitmaps, got, want)
				}
			}
		})
	}
}
