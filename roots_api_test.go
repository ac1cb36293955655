package mbe_test

import (
	"math/rand"
	"strings"
	"testing"

	mbe "repro"
	"repro/internal/engine"
)

func rootsTestGraph(t *testing.T, seed int64, nu, nv, m int) *mbe.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]mbe.Edge, m)
	for i := range edges {
		edges[i] = mbe.Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := mbe.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRootRangeShardsMergeToFullRun: through the public API, digests of
// disjoint [StartRoot, EndRoot) shards merge into the full run's digest
// for every engine the registry marks as honouring the root partition
// contract, under a non-trivial ordering (the range is interpreted in
// the ordered root space, but emitted ids — and hence digests — are in
// the original id space either way).
func TestRootRangeShardsMergeToFullRun(t *testing.T) {
	g := rootsTestGraph(t, 4, 30, 40, 300)
	for _, e := range engine.All() {
		if !e.Partition {
			continue
		}
		alg := mbe.Algorithm(e.ID)
		base := mbe.Options{Algorithm: alg, Ordering: mbe.OrderRandom, Seed: 5, Threads: 2}

		var full mbe.Digest
		fullOpts := base
		fullOpts.OnBiclique = full.Observe
		if _, err := mbe.Enumerate(g, fullOpts); err != nil {
			t.Fatal(err)
		}

		var merged mbe.Digest
		var count int64
		for _, cut := range [][2]int32{{0, 13}, {13, 29}, {29, 0}} { // EndRoot 0 = |V|
			var d mbe.Digest
			opts := base
			opts.StartRoot, opts.EndRoot = cut[0], cut[1]
			opts.OnBiclique = d.Observe
			res, err := mbe.Enumerate(g, opts)
			if err != nil {
				t.Fatalf("%v shard [%d,%d): %v", alg, cut[0], cut[1], err)
			}
			if res.Count != d.Count {
				t.Errorf("%v shard [%d,%d): result count %d != observed %d", alg, cut[0], cut[1], res.Count, d.Count)
			}
			count += res.Count
			merged.Merge(d)
		}
		if !merged.Equal(full) || count != full.Count {
			t.Errorf("%v: merged shard digest %v (count %d) != full run %v (count %d)",
				alg, merged, count, full, full.Count)
		}
	}
}

// TestRootRangeRejections: the public API's guard rails around
// StartRoot/EndRoot.
func TestRootRangeRejections(t *testing.T) {
	g := rootsTestGraph(t, 6, 10, 10, 40)
	cases := []struct {
		name string
		opts mbe.Options
		want string
	}{
		{"spool", mbe.Options{StartRoot: 1, SpoolDir: t.TempDir()}, "SpoolDir"},
		{"competitor", mbe.Options{Algorithm: mbe.FMBE, EndRoot: 5}, "only supported"},
		{"reversed", mbe.Options{StartRoot: 7, EndRoot: 3}, "reversed"},
		{"past-end", mbe.Options{EndRoot: 11}, "exceeds"},
		{"negative-end", mbe.Options{EndRoot: -2}, "negative"},
	}
	for _, c := range cases {
		_, err := mbe.Enumerate(g, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
