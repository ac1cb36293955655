package mbe

import (
	"repro/internal/spool"
)

// ReadSpool streams every biclique stored in the spool at dir to fn, in
// shard order, and returns how many records were delivered. The L and R
// slices are reused between calls (the usual Handler contract) and each
// side arrives sorted ascending in the original graph's id space.
//
// A corrupt shard tail (the signature of a crash mid-write) is NOT
// fatal: fn still receives the valid prefix of every shard, and the
// returned error then describes the first corruption. An interrupted
// run's spool therefore reads cleanly up to exactly what was durable.
func ReadSpool(dir string, fn Handler) (int64, error) {
	var wrapped func(root int32, L, R []int32)
	if fn != nil {
		wrapped = func(_ int32, L, R []int32) { fn(L, R) }
	}
	states, err := spool.Replay(dir, wrapped)
	if err != nil {
		return spool.TotalRecords(states), err
	}
	return spool.TotalRecords(states), spool.Clean(states)
}

// SpoolDigest replays the spool at dir into a Digest — the O(1)
// multiset summary used to compare a spooled (or resumed) run against
// any other enumeration of the same graph. Unlike ReadSpool it fails on
// a corrupt tail rather than digesting a silently shortened output.
func SpoolDigest(dir string) (Digest, error) { return spool.ReplayDigest(dir) }
