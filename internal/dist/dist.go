// Package dist is the distributed-enumeration layer: a coordinator that
// splits the root space [0, |V|) into ranges and leases them to workers,
// and a worker that enumerates its leased range and streams frontier
// watermarks with mergeable digest deltas back over HTTP/NDJSON.
//
// The design generalizes the single-process checkpoint model
// (internal/ckpt, docs/DURABILITY.md) to many processes: root subtrees
// partition the output — every maximal biclique is emitted exactly once,
// under the minimal vertex of its R side — so disjoint root ranges
// enumerate disjoint biclique sets, and the per-range multiset digests
// (internal/digest) merge commutatively into the global run digest.
// This is the shape of Mukherjee & Tirthapura's MapReduce MBE
// (arXiv:1404.4910), carried on our own lease/watermark protocol instead
// of Hadoop.
//
// Exactly-once across worker death rests on three rules, the same ones
// the durable spool uses, lifted to the wire (docs/DISTRIBUTED.md is the
// normative spec):
//
//   - Workers stream watermark frames: each carries the digest delta of
//     the now-complete root interval [from, to). Intervals from one
//     attempt are contiguous and disjoint, so the coordinator's merge of
//     accepted deltas is the exact digest of [Start, Watermark).
//   - A lease re-issue (expiry, worker death, coordinator restart)
//     resumes at the range's confirmed watermark: nothing below it is
//     re-enumerated, everything at or above it is re-enumerated whole.
//   - Every frame carries the lease's attempt number as a fencing token:
//     frames from a stale attempt are rejected, so a zombie worker that
//     missed its expiry can never double-merge output the re-issued
//     lease is re-producing.
//
// The coordinator persists its state to dist-manifest.json with the
// spool's atomic write (temp + fsync + rename), so kill -9 at any point
// recovers: leased ranges return to pending and resume from their last
// persisted watermark.
package dist

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/spool"
)

// Spec pins everything that must agree between the coordinator and every
// worker for the root decomposition — and therefore the watermarks and
// digests — to be meaningful: the engine, the V ordering with its seed,
// τ, and the graph's identity. Workers verify their loaded graph against
// the signature before accepting leases.
type Spec struct {
	// Algorithm is the engine name in the registry's spelling (any
	// case): AdaMBE, ParAdaMBE, Baseline, AdaMBE-LN, AdaMBE-BIT, or BBK.
	// The paper competitors do not share the root partition contract and
	// are rejected.
	Algorithm string `json:"algorithm"`
	// Ordering is the V-side ordering tag (asc|rand|uc|none, any case;
	// required) with its seed — the same pair a spool meta records, for
	// the same reason: the root ids every watermark refers to live in the
	// ordered id space.
	Ordering  string `json:"ordering"`
	OrderSeed int64  `json:"order_seed"`
	Tau       int    `json:"tau"`

	// The graph: at most one locator, plus the identity every worker
	// must verify. Dataset names a built-in synthetic dataset; Path and
	// Bin are file paths valid on the workers' hosts (single-box or
	// shared-filesystem deployments). A worker constructed with an
	// explicit Graph ignores the locator.
	Dataset string `json:"dataset,omitempty"`
	Path    string `json:"path,omitempty"`
	Bin     string `json:"bin,omitempty"`

	NU        int    `json:"nu"`
	NV        int    `json:"nv"`
	Edges     int64  `json:"edges"`
	GraphHash string `json:"graph_hash"`
}

// WithGraph fills the Spec's graph-identity fields from g.
func (s Spec) WithGraph(g *graph.Bipartite) Spec {
	s.NU = g.NU()
	s.NV = g.NV()
	s.Edges = g.NumEdges()
	s.GraphHash = spool.GraphSignature(g)
	return s
}

// LoadGraph resolves the spec's graph locator.
func (s Spec) LoadGraph() (*graph.Bipartite, error) {
	switch {
	case s.Dataset != "":
		d, found := datasets.ByName(s.Dataset)
		if !found {
			return nil, fmt.Errorf("dist: unknown dataset %q", s.Dataset)
		}
		return d.Build(), nil
	case s.Path != "":
		return graph.ReadKonectFile(s.Path)
	case s.Bin != "":
		return graph.ReadBinaryFile(s.Bin)
	}
	return nil, errors.New("dist: spec has no graph locator and the worker was given no graph")
}

// CheckGraph verifies that g is the graph the spec describes.
func (s Spec) CheckGraph(g *graph.Bipartite) error {
	if g.NU() != s.NU || g.NV() != s.NV || g.NumEdges() != s.Edges || spool.GraphSignature(g) != s.GraphHash {
		return fmt.Errorf("dist: graph mismatch: spec %dx%d/%d (%s), loaded %dx%d/%d (%s)",
			s.NU, s.NV, s.Edges, s.GraphHash, g.NU(), g.NV(), g.NumEdges(), spool.GraphSignature(g))
	}
	return nil
}

// resolve maps the spec's Algorithm and Ordering through the engine
// registry and the ordering table (both case-insensitive). The engine
// must honour the root-partition contract, and the ordering must be
// named: an empty one is refused rather than read as a default.
func (s Spec) resolve() (engine.Engine, order.Kind, error) {
	e, err := engine.Parse(s.Algorithm)
	if err == nil && !e.Partition {
		err = fmt.Errorf("algorithm %q does not support the root partition contract", s.Algorithm)
	}
	if err != nil {
		return e, 0, fmt.Errorf("dist: %w (want %s)", err, strings.Join(engine.Names(engine.Partition), "|"))
	}
	if s.Ordering == "" {
		return e, 0, fmt.Errorf("dist: spec has no ordering (want %s)", strings.Join(engine.OrderingNames, "|"))
	}
	k, err := engine.ParseOrdering(s.Ordering)
	if err != nil {
		return e, 0, fmt.Errorf("dist: %w", err)
	}
	return e, k, nil
}

// Canonical returns the spec with Algorithm and Ordering in their
// canonical spellings. The coordinator canonicalizes a spec before it
// persists or compares it, so "adambe"/"ASC" and "AdaMBE"/"asc" name
// the same run.
func (s Spec) Canonical() (Spec, error) {
	e, k, err := s.resolve()
	if err != nil {
		return Spec{}, err
	}
	s.Algorithm = e.Name
	s.Ordering, _ = engine.OrderingName(k)
	return s, nil
}

// Validate checks the spec's engine and ordering spellings and its graph
// identity fields, so misconfiguration fails at coordinator start, not
// at the first lease.
func (s Spec) Validate() error {
	if _, err := s.Canonical(); err != nil {
		return err
	}
	if s.NV <= 0 || s.NU <= 0 || s.GraphHash == "" {
		return fmt.Errorf("dist: spec is missing its graph identity (nu=%d nv=%d hash=%q); build it with WithGraph", s.NU, s.NV, s.GraphHash)
	}
	return nil
}

// RootRange is one contiguous shard [Start, End) of the root space.
type RootRange struct {
	Start int32
	End   int32
}

// SplitRoots cuts [0, nv) into at most n contiguous non-empty ranges of
// near-equal width. Fewer than n come back when nv < n.
func SplitRoots(nv, n int) []RootRange {
	if n < 1 {
		n = 1
	}
	if n > nv {
		n = nv
	}
	out := make([]RootRange, 0, n)
	for i := 0; i < n; i++ {
		r := RootRange{Start: int32(i * nv / n), End: int32((i + 1) * nv / n)}
		if r.End > r.Start {
			out = append(out, r)
		}
	}
	return out
}
