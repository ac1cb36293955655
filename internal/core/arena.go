package core

import (
	"sync"

	"repro/internal/sched"
)

// detachedNode is a heap-owned enumeration-tree node handed between
// ParAdaMBE workers. Its visible slices alias only the node's own retained
// backing buffers (flat/hdrBuf/words), never the spawning engine's slab.
//
// A node has one of two forms. An LN node carries local-neighborhood lists
// (candNbrs, exclNbrs) and runs searchLN. A bitmap node (width > 0), a
// root child built straight into a bitmap CG, carries its masks by value:
// words holds the candidates' masks, width words each in candIDs order,
// then the excluded masks; L is the bitmap's L* and exclIDs, candNbrs and
// exclNbrs are empty.
type detachedNode struct {
	L, R     []int32
	candIDs  []int32
	candNbrs [][]int32
	exclIDs  []int32
	exclNbrs [][]int32
	width    int
	words    []uint64
	depth    int
	// root tags the node with the root V vertex (engine order) of the
	// subtree it belongs to; it rides along so spooled emissions and the
	// checkpoint frontier can attribute the task's output to its root.
	root int32
	// mem is the footprint charged to the run's memory gauge at spawn,
	// released when the task completes (or is discarded during a drain).
	mem int64
	// isRoot marks the seed task: the receiving worker runs the two-hop
	// root loop instead of searchLN.
	isRoot bool
	// home is the arena that detached the node; recycle returns it there.
	home *nodeArena

	// Retained backing storage, reused across arena recycles: flat holds
	// every int32 payload (L, R, candIDs, exclIDs, then all neighborhood
	// lists back to back), hdrBuf the candNbrs+exclNbrs slice headers.
	// words is retained the same way; an LN node keeps it at length 0.
	flat   []int32
	hdrBuf [][]int32
}

// memBytes approximates the node's heap footprint for the run's memory
// gauge: int32 payloads, mask words, slice headers and the struct itself. The
// charge is taken when the node is queued and released when its task
// completes, so the gauge tracks the live queued footprint (up to
// threads×capacity nodes) rather than cumulative spawn traffic.
func (n *detachedNode) memBytes() int64 {
	ints := len(n.L) + len(n.R) + len(n.candIDs) + len(n.exclIDs)
	for _, nb := range n.candNbrs {
		ints += len(nb)
	}
	for _, nb := range n.exclNbrs {
		ints += len(nb)
	}
	headers := len(n.candNbrs) + len(n.exclNbrs)
	return int64(ints)*4 + int64(len(n.words))*8 + int64(headers)*24 + 96
}

// nodeArena is one worker's allocator for detached spawn state. The spawn
// deep-copy is ParAdaMBE's dominant allocation: before the arena, every
// detachNode call allocated seven objects (four id slices, two header
// slices, one flattened neighborhood buffer) that died as soon as the task
// ran. The arena recycles whole nodes through the sched task lifecycle
// instead — detach Gets a finished node off the worker's FreeList and
// copies into its retained buffers; recycle hands the node back to the
// arena that detached it once runTask (and every completion defer:
// frontier report, gauge release) has finished with it. Steady state
// spawns allocate nothing.
//
// Owned by a single worker goroutine; other workers only append to its
// inbox, under mu. Retained capacity is not charged to the run's memory
// gauge: it is bounded by the peak live detached footprint, which was
// charged (per node, while live) at its peak.
type nodeArena struct {
	free        sched.FreeList[detachedNode]
	bytesReused int64

	// inbox collects this arena's nodes that other workers ran (see
	// recycle).
	mu    sync.Mutex
	inbox []*detachedNode
}

// detach deep-copies node state out of the spawning engine's slab into an
// arena-owned node so another worker can own it. reused reports whether the
// node shell came off the free list (an arena hit).
func (a *nodeArena) detach(L, R, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32) (n *detachedNode, reused bool) {
	ints := len(L) + len(R) + len(candIDs) + len(exclIDs)
	for _, nb := range candNbrs {
		ints += len(nb)
	}
	for _, nb := range exclNbrs {
		ints += len(nb)
	}
	n, reused = a.shell(ints, 0)
	hdrs := len(candNbrs) + len(exclNbrs)
	if cap(n.hdrBuf) < hdrs {
		n.hdrBuf = make([][]int32, hdrs)
	} else {
		n.hdrBuf = n.hdrBuf[:hdrs]
	}

	// Carve the flat buffer in deterministic order. Full-capacity slices
	// are fine: consumers only read the lengths set here.
	buf := n.flat[:0]
	carve := func(src []int32) []int32 {
		start := len(buf)
		buf = append(buf, src...)
		return buf[start:len(buf):len(buf)]
	}
	n.L = carve(L)
	n.R = carve(R)
	n.candIDs = carve(candIDs)
	n.exclIDs = carve(exclIDs)
	n.candNbrs = n.hdrBuf[:len(candNbrs):len(candNbrs)]
	for i, nb := range candNbrs {
		n.candNbrs[i] = carve(nb)
	}
	n.exclNbrs = n.hdrBuf[len(candNbrs):hdrs:hdrs]
	for i, nb := range exclNbrs {
		n.exclNbrs[i] = carve(nb)
	}
	return n, reused
}

// detachBit is detach for a bitmap node: it copies L*, R, the candidate ids
// and the node's mask words (candidates' masks then excluded masks, width
// words each) into an arena-owned node.
func (a *nodeArena) detachBit(L, R, cand []int32, words []uint64, width int) (n *detachedNode, reused bool) {
	n, reused = a.shell(len(L)+len(R)+len(cand), len(words))
	copy(n.flat, L)
	copy(n.flat[len(L):], R)
	copy(n.flat[len(L)+len(R):], cand)
	n.L = n.flat[:len(L):len(L)]
	n.R = n.flat[len(L) : len(L)+len(R) : len(L)+len(R)]
	n.candIDs = n.flat[len(L)+len(R):]
	copy(n.words, words)
	n.width = width
	return n, reused
}

// shell returns a node with its flat buffer sized to ints and its words
// buffer to nWords, every other field zeroed: a recycled shell keeps only
// its retained buffers, never a previous form's slices or width.
func (a *nodeArena) shell(ints, nWords int) (n *detachedNode, reused bool) {
	a.collect()
	n, reused = a.free.Get()
	if !reused {
		n = &detachedNode{}
	}
	flat, hdrBuf, words := n.flat, n.hdrBuf, n.words
	*n = detachedNode{flat: flat, hdrBuf: hdrBuf, words: words, home: a}
	if cap(n.flat) < ints {
		n.flat = make([]int32, ints)
	} else {
		n.flat = n.flat[:ints]
		if reused {
			a.bytesReused += int64(ints) * 4
		}
	}
	if cap(n.words) < nWords {
		n.words = make([]uint64, nWords)
	} else {
		n.words = n.words[:nWords]
		if reused {
			a.bytesReused += int64(nWords) * 8
		}
	}
	return n, reused
}

// recycle parks a finished node for reuse by the arena that detached it.
// Must only be called after every reference from the task's execution
// (runTask and its defers) is dead. A node goes home because the spawner
// is the worker that will spawn again: when root children run as bitmap
// subtrees only the root loop's worker spawns, and a thief keeping the
// nodes it ran would never reuse them. Either list holds at most
// parallelQueueCap nodes, more than one worker can have queued at once;
// past that the node is left to the GC.
func (a *nodeArena) recycle(n *detachedNode) {
	if h := n.home; h != nil && h != a {
		h.give(n)
		return
	}
	if a.free.Len() < parallelQueueCap {
		a.free.Put(n)
	}
}

// give hands a node another worker finished back to its home arena.
func (a *nodeArena) give(n *detachedNode) {
	a.mu.Lock()
	if len(a.inbox) < parallelQueueCap {
		a.inbox = append(a.inbox, n)
	}
	a.mu.Unlock()
}

// collect moves returned nodes onto the free list once it has run dry, so
// the owner takes the lock at most once per free-list miss, not per spawn.
func (a *nodeArena) collect() {
	if a.free.Len() > 0 {
		return
	}
	a.mu.Lock()
	for _, n := range a.inbox {
		a.free.Put(n)
	}
	clear(a.inbox)
	a.inbox = a.inbox[:0]
	a.mu.Unlock()
}

// stats folds the arena's counters into a worker's metrics at merge time.
func (a *nodeArena) stats(m *Metrics) {
	hits, misses := a.free.Stats()
	m.ArenaSpawnHits += hits
	m.ArenaSpawnMisses += misses
	m.ArenaBytesReused += a.bytesReused
}
