package mbe

import (
	"repro/internal/digest"
)

// Fingerprint returns the canonical 64-bit fingerprint of one maximal
// biclique (L, R). It is invariant under reordering within each side but
// distinguishes the sides, so two enumerations emit the same fingerprint
// for a biclique regardless of traversal order, ordering heuristic, or
// thread schedule. Use it with Digest to compare runs without storing
// their outputs.
func Fingerprint(L, R []int32) uint64 { return digest.Fingerprint(L, R) }

// Digest is a commutative, mergeable accumulator over biclique
// fingerprints: two enumerations of the same graph produce Equal digests
// iff they emitted the same multiset of bicliques, in O(1) memory and
// independent of emission order. Digest.Observe is Handler-compatible:
//
//	var d mbe.Digest
//	res, err := mbe.Enumerate(g, mbe.Options{OnBiclique: d.Observe})
//
// With Options.UnorderedEmit set, handler calls are concurrent: give each
// worker its own Digest and combine them with Merge instead of sharing
// one Observe across goroutines.
type Digest = digest.Digest
