package core

import (
	"fmt"
	"sync"
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

	// One shell through list → bitmap → list: each form must be a faithful
	// copy, no field of the previous form may survive, and memBytes must
	// describe the live form only.
	a.recycle(n3)
	words := []uint64{0b011, 0b110, 0b101}
	n4, reused := a.detachBit([]int32{1, 2, 3}, []int32{4}, []int32{5, 6}, words, 1)
	if !reused || n4 != n3 {
		t.Fatal("bitmap detach did not reuse the recycled shell")
	}
	words[0] = 0
	if n4.width != 1 || len(n4.words) != 3 || n4.words[0] != 0b011 || n4.words[2] != 0b101 {
		t.Fatalf("bitmap words corrupted: width %d words %v", n4.width, n4.words)
	}
	if len(n4.L) != 3 || n4.L[2] != 3 || len(n4.R) != 1 || n4.R[0] != 4 || len(n4.candIDs) != 2 || n4.candIDs[1] != 6 {
		t.Fatalf("bitmap ids corrupted: L %v R %v cand %v", n4.L, n4.R, n4.candIDs)
	}
	if n4.exclIDs != nil || n4.candNbrs != nil || n4.exclNbrs != nil {
		t.Fatalf("stale list form on a bitmap node: %v %v %v", n4.exclIDs, n4.candNbrs, n4.exclNbrs)
	}
	if n4.depth != 0 || n4.root != 0 || n4.mem != 0 || n4.isRoot {
		t.Fatalf("stale task state on a reused shell: %+v", n4)
	}
	// 6 ids, 3 words, no slice headers, plus the struct.
	if got, want := n4.memBytes(), int64(6*4+3*8+96); got != want {
		t.Fatalf("bitmap memBytes = %d, want %d", got, want)
	}

	a.recycle(n4)
	n5, reused := a.detach([]int32{1, 2, 3}, []int32{4}, []int32{5, 6}, [][]int32{{1, 2}, {2, 3}}, []int32{7}, [][]int32{{1}})
	if !reused || n5 != n4 {
		t.Fatal("list detach did not reuse the bitmap shell")
	}
	check(n5)
	if n5.width != 0 || len(n5.words) != 0 {
		t.Fatalf("stale bitmap form on a list node: width %d words %v", n5.width, n5.words)
	}
	// 12 ids (L, R, cand, excl and 5 neighborhood entries), 3 headers.
	if got, want := n5.memBytes(), int64(12*4+3*24+96); got != want {
		t.Fatalf("list memBytes = %d, want %d", got, want)
	}

	var m Metrics
	a.stats(&m)
	if m.ArenaSpawnHits != 4 || m.ArenaSpawnMisses != 1 {
		t.Fatalf("arena stats hits=%d misses=%d, want 4/1", m.ArenaSpawnHits, m.ArenaSpawnMisses)
	}
}

// TestArenaParallelRecycling runs the parallel engine on a graph busy
// enough to spawn and steal, asserts the enumeration matches the serial
// engine exactly, and that the arena actually recycled (hits > 0) — i.e.
// the steady state runs on reused nodes, not fresh allocations. Run under
// -race in CI, this is also the aliasing check for recycle-after-steal.
// At the paper's τ the spawned subtrees are LN nodes; at the default τ
// every root child of this fixture is built as a bitmap, so the tasks are
// bitmap nodes carrying their masks by value.
func TestArenaParallelRecycling(t *testing.T) {
	// Dense uniform: thousands of spawn offers, so every run sustains
	// enough spawning for workers to re-spawn after recycling.
	g := gen.Uniform(7, 500, 180, 14000)
	for _, tau := range []int{PaperTau, DefaultTau} {
		want, _, err := CollectKeys(g, Options{Variant: Ada, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{4, 8} {
			name := fmt.Sprintf("tau=%d/threads=%d", tau, threads)
			// Hit counts depend on steal timing, so they are accumulated
			// over a few runs; each individual run still checks exact
			// agreement with the serial engine.
			var total Metrics
			for rep := 0; rep < 3; rep++ {
				var m Metrics
				got, res, err := CollectKeys(g, Options{Variant: Ada, Tau: tau, Threads: threads, Metrics: &m})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Count != int64(len(want)) || !keysEqual(got, want) {
					t.Fatalf("%s: %d bicliques, want %d", name, res.Count, len(want))
				}
				total.merge(&m)
			}
			if total.TasksSpawned == 0 {
				t.Fatalf("%s: no tasks spawned; fixture too small to test the arena", name)
			}
			if total.ArenaSpawnHits+total.ArenaSpawnMisses == 0 {
				t.Fatalf("%s: arena never used", name)
			}
			if total.ArenaSpawnHits == 0 {
				t.Fatalf("%s: arena never recycled (misses=%d)", name, total.ArenaSpawnMisses)
			}
			if total.ArenaBytesReused == 0 {
				t.Fatalf("%s: arena hits but no bytes reused", name)
			}
		}
	}
}

// TestArenaFreeListBounded: a worker that recycles far more nodes than it
// detaches (a thief running stolen subtrees that never spawn) must not
// retain them. Each node goes back to the arena that detached it, which
// keeps at most parallelQueueCap of them, whether it ran them itself or
// another worker returned them; the returned ones serve its next spawns.
func TestArenaFreeListBounded(t *testing.T) {
	var spawner, thief nodeArena
	detachAll := func() []*detachedNode {
		nodes := make([]*detachedNode, 3*parallelQueueCap)
		for i := range nodes {
			nodes[i], _ = spawner.detach([]int32{1, 2}, []int32{3}, nil, nil, nil, nil)
		}
		return nodes
	}
	for _, n := range detachAll() {
		thief.recycle(n)
	}
	if got := thief.free.Len(); got != 0 {
		t.Fatalf("thief kept %d nodes it did not detach", got)
	}
	if got := len(spawner.inbox); got != parallelQueueCap {
		t.Fatalf("spawner inbox holds %d nodes after %d returns, want %d", got, 3*parallelQueueCap, parallelQueueCap)
	}
	spawner.collect()
	if got := spawner.free.Len(); got != parallelQueueCap {
		t.Fatalf("spawner free list holds %d returned nodes, want %d", got, parallelQueueCap)
	}
	hits, _ := spawner.free.Stats()
	nodes := detachAll()
	if h, _ := spawner.free.Stats(); h-hits != int64(parallelQueueCap) {
		t.Fatalf("%d of %d spawns reused returned nodes, want %d", h-hits, len(nodes), parallelQueueCap)
	}
	for _, n := range nodes {
		spawner.recycle(n)
	}
	if got := spawner.free.Len(); got != parallelQueueCap {
		t.Fatalf("free list holds %d nodes after %d recycles, want %d", got, len(nodes), parallelQueueCap)
	}
}

// TestArenaConcurrentReturn: thieves return a spawner's nodes from several
// goroutines while the spawner keeps detaching, which drains its inbox.
// Under -race this is the synchronization check for the inbox; every
// returned node must come back at most once and the spawner's retention
// stays bounded.
func TestArenaConcurrentReturn(t *testing.T) {
	const thieves = 4
	var home nodeArena
	nodes := make([]*detachedNode, 4*parallelQueueCap)
	for i := range nodes {
		nodes[i], _ = home.detach([]int32{1, 2}, []int32{3}, nil, nil, nil, nil)
	}
	var wg sync.WaitGroup
	for k := 0; k < thieves; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var thief nodeArena
			for i := k; i < len(nodes); i += thieves {
				thief.recycle(nodes[i])
			}
		}(k)
	}
	seen := make(map[*detachedNode]bool)
	for i := 0; i < 2*len(nodes); i++ {
		n, reused := home.detachBit([]int32{1}, nil, []int32{2}, []uint64{1}, 1)
		if reused {
			if seen[n] {
				t.Fatal("a returned node was handed out twice")
			}
			seen[n] = true
		}
	}
	wg.Wait()
	home.mu.Lock()
	inbox := len(home.inbox)
	home.mu.Unlock()
	if kept := home.free.Len() + inbox; kept > 2*parallelQueueCap {
		t.Fatalf("spawner retains %d nodes, want at most %d", kept, 2*parallelQueueCap)
	}
	if hits, _ := home.free.Stats(); hits != int64(len(seen)) {
		t.Fatalf("%d arena hits, %d distinct reused nodes", hits, len(seen))
	}
}
