package core

import (
	"testing"

	"repro/internal/gen"
)

// TestArenaDetachRoundTrip: a detached node must be a faithful deep copy
// whose slices stay intact after the source buffers are clobbered, and a
// recycled shell must produce an equally faithful copy on reuse.
func TestArenaDetachRoundTrip(t *testing.T) {
	var a nodeArena
	L := []int32{1, 2, 3}
	R := []int32{4}
	cand := []int32{5, 6}
	candN := [][]int32{{1, 2}, {2, 3}}
	excl := []int32{7}
	exclN := [][]int32{{1}}

	check := func(n *detachedNode) {
		t.Helper()
		if len(n.L) != 3 || n.L[0] != 1 || n.L[2] != 3 {
			t.Fatalf("L corrupted: %v", n.L)
		}
		if len(n.R) != 1 || n.R[0] != 4 {
			t.Fatalf("R corrupted: %v", n.R)
		}
		if len(n.candIDs) != 2 || len(n.candNbrs) != 2 || len(n.candNbrs[1]) != 2 || n.candNbrs[1][1] != 3 {
			t.Fatalf("cand corrupted: %v %v", n.candIDs, n.candNbrs)
		}
		if len(n.exclIDs) != 1 || len(n.exclNbrs) != 1 || n.exclNbrs[0][0] != 1 {
			t.Fatalf("excl corrupted: %v %v", n.exclIDs, n.exclNbrs)
		}
	}

	n, reused := a.detach(L, R, cand, candN, excl, exclN)
	if reused {
		t.Fatal("first detach cannot be an arena hit")
	}
	// Clobber every source slice: the node must not alias them.
	for i := range L {
		L[i] = -1
	}
	candN[1][1] = -1
	exclN[0][0] = -1
	check(n)

	a.recycle(n)
	n2, reused := a.detach([]int32{1, 2, 3}, []int32{4}, []int32{5, 6}, [][]int32{{1, 2}, {2, 3}}, []int32{7}, [][]int32{{1}})
	if !reused {
		t.Fatal("detach after recycle must be an arena hit")
	}
	if n2 != n {
		t.Fatal("recycled shell not reused")
	}
	check(n2)

	// A larger detach must still be correct (forces buffer regrowth).
	a.recycle(n2)
	big := make([]int32, 500)
	for i := range big {
		big[i] = int32(i)
	}
	n3, _ := a.detach(big, R, nil, nil, nil, nil)
	if len(n3.L) != 500 || n3.L[499] != 499 {
		t.Fatalf("regrown detach corrupted: len %d", len(n3.L))
	}

	var m Metrics
	a.stats(&m)
	if m.ArenaSpawnHits != 2 || m.ArenaSpawnMisses != 1 {
		t.Fatalf("arena stats hits=%d misses=%d, want 2/1", m.ArenaSpawnHits, m.ArenaSpawnMisses)
	}
}

// TestArenaParallelRecycling runs the parallel engine on a graph busy
// enough to spawn and steal, asserts the enumeration matches the serial
// engine exactly, and that the arena actually recycled (hits > 0) — i.e.
// the steady state runs on reused nodes, not fresh allocations. Run under
// -race in CI, this is also the aliasing check for recycle-after-steal.
func TestArenaParallelRecycling(t *testing.T) {
	// Dense uniform: thousands of spawn offers, so every run sustains
	// enough spawning for workers to re-spawn after recycling.
	// τ = 64 keeps the LN procedure above the bitmap boundary on this
	// fixture, so spawns happen at the LN level the arena serves; at the
	// default τ every root subtree is already a bitmap.
	g := gen.Uniform(7, 500, 180, 14000)
	const tau = 64
	want, _, err := CollectKeys(g, Options{Variant: Ada, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{4, 8} {
		// Hit counts depend on steal timing, so they are accumulated over
		// a few runs; each individual run still checks exact agreement
		// with the serial engine.
		var total Metrics
		for rep := 0; rep < 3; rep++ {
			var m Metrics
			got, res, err := CollectKeys(g, Options{Variant: Ada, Tau: tau, Threads: threads, Metrics: &m})
			if err != nil {
				t.Fatalf("threads=%d: %v", threads, err)
			}
			if res.Count != int64(len(want)) || !keysEqual(got, want) {
				t.Fatalf("threads=%d: %d bicliques, want %d", threads, res.Count, len(want))
			}
			total.merge(&m)
		}
		if total.TasksSpawned == 0 {
			t.Fatalf("threads=%d: no tasks spawned; fixture too small to test the arena", threads)
		}
		if total.ArenaSpawnHits+total.ArenaSpawnMisses == 0 {
			t.Fatalf("threads=%d: arena never used", threads)
		}
		if total.ArenaSpawnHits == 0 {
			t.Fatalf("threads=%d: arena never recycled (misses=%d)", threads, total.ArenaSpawnMisses)
		}
		if total.ArenaBytesReused == 0 {
			t.Fatalf("threads=%d: arena hits but no bytes reused", threads)
		}
	}
}

// TestArenaFreeListBounded: a worker that recycles far more nodes than it
// detaches (a thief running stolen subtrees that never spawn) must not
// retain them all; the free list stops at parallelQueueCap.
func TestArenaFreeListBounded(t *testing.T) {
	var spawner, thief nodeArena
	nodes := make([]*detachedNode, 3*parallelQueueCap)
	for i := range nodes {
		nodes[i], _ = spawner.detach([]int32{1, 2}, []int32{3}, nil, nil, nil, nil)
	}
	for _, n := range nodes {
		thief.recycle(n)
	}
	if got := thief.free.Len(); got != parallelQueueCap {
		t.Fatalf("free list holds %d nodes after %d recycles, want %d", got, len(nodes), parallelQueueCap)
	}
}
