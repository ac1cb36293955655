package mbe

import (
	"errors"
	"time"

	"repro/internal/finder"
)

// ErrTimedOut reports that a counting run hit its deadline; the returned
// count is the partial progress.
var ErrTimedOut = errors.New("mbe: deadline exceeded (partial result)")

// Biclique is a concrete biclique with both sides materialized.
type Biclique = finder.Biclique

// FindResult describes a biclique-optimization search outcome.
type FindResult = finder.Result

// FindOptions configures the biclique-optimization searches. These
// problems — maximum edge / balanced / vertex biclique, personalized
// maximum biclique, and size-bounded enumeration — are the §V applications
// the paper positions AdaMBE as a substrate for; all run the AdaMBE engine
// with branch-and-bound pruning.
type FindOptions struct {
	// Threads > 1 searches with ParAdaMBE underneath.
	Threads int
	// Tau is AdaMBE's bitmap threshold; 0 = core.DefaultTau (256).
	Tau int
	// Deadline stops the search early, returning the best incumbent.
	Deadline time.Time
}

func (o FindOptions) internal() finder.Options {
	return finder.Options{Threads: o.Threads, Tau: o.Tau, Deadline: o.Deadline}
}

// MaximumEdgeBiclique finds a biclique of g maximizing |L|·|R|.
func MaximumEdgeBiclique(g *Graph, opts FindOptions) (FindResult, error) {
	return finder.MaximumEdgeBiclique(g.b, opts.internal())
}

// MaximumBalancedBiclique finds a biclique maximizing min(|L|, |R|); any
// k-subset of each side of the result is an optimal balanced biclique.
func MaximumBalancedBiclique(g *Graph, opts FindOptions) (FindResult, error) {
	return finder.MaximumBalancedBiclique(g.b, opts.internal())
}

// MaximumVertexBiclique finds a biclique maximizing |L| + |R|.
func MaximumVertexBiclique(g *Graph, opts FindOptions) (FindResult, error) {
	return finder.MaximumVertexBiclique(g.b, opts.internal())
}

// PersonalizedMaximumBiclique finds the maximum edge biclique whose R side
// contains the query vertex v ∈ V.
func PersonalizedMaximumBiclique(g *Graph, v int32, opts FindOptions) (FindResult, error) {
	return finder.PersonalizedMaximumBiclique(g.b, v, opts.internal())
}

// EnumerateSizeBounded reports every maximal biclique with |L| ≥ p and
// |R| ≥ q, pruning enumeration subtrees that cannot satisfy the bounds,
// and returns the number of qualifying bicliques.
func EnumerateSizeBounded(g *Graph, p, q int, handler Handler, opts FindOptions) (int64, error) {
	n, _, err := finder.EnumerateSizeBounded(g.b, p, q, handler, opts.internal())
	return n, err
}

// TopKEdgeBicliques returns the k maximal bicliques with the largest
// |L|·|R|, in descending order (ties broken arbitrarily).
func TopKEdgeBicliques(g *Graph, k int, opts FindOptions) ([]Biclique, error) {
	out, _, err := finder.TopKEdgeBicliques(g.b, k, opts.internal())
	return out, err
}

// CountPQBicliques returns the exact number of (p,q)-bicliques — complete
// bipartite subgraphs with exactly p U-vertices and q V-vertices, maximal
// or not. Intended for small q; the count saturates at MaxInt64.
func CountPQBicliques(g *Graph, p, q int, opts FindOptions) (int64, error) {
	n, timedOut, err := finder.CountPQBicliques(g.b, p, q, opts.Deadline)
	if err != nil {
		return 0, err
	}
	if timedOut {
		return n, ErrTimedOut
	}
	return n, nil
}
