// Package difftest is the correctness-tooling layer for the enumeration
// engines: run digests (internal/digest) as the comparison, a
// differential runner that executes every
// engine × ordering × thread-count combination and asserts digest
// equality, metamorphic graph transformations with known effects on the
// biclique set, and a delta-debugging minimizer that shrinks any
// disagreement to a standalone replayable repro file.
//
// The design premise comes from the paper's own validation gap: Table 4
// compares only total counts, and counts can collide — after the
// work-stealing scheduler a bug that drops one biclique and double-emits
// another is invisible to every count-based check. Digests compare the
// *set* of bicliques (up to astronomically unlikely hash collisions) in
// O(1) memory, so multi-million-biclique runs cross-check for free.
package difftest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// EmitSite is the faultinject site the runner consults once per emitted
// biclique when Config.Fault is armed.
const EmitSite = "difftest/emit"

// MapBack rewrites a biclique of a transformed graph into the original
// graph's id space (see metamorph.go). The returned slices may alias the
// inputs; an error means the transformation's invariant was violated,
// which is itself a detected bug.
type MapBack func(L, R []int32) ([]int32, []int32, error)

// Digest and Fingerprint are the canonical run digest and biclique
// fingerprint of internal/digest.
type Digest = digest.Digest

// Fingerprint returns the canonical fingerprint of one biclique.
func Fingerprint(L, R []int32) uint64 { return digest.Fingerprint(L, R) }

// Run enumerates g under c and returns the canonical digest of the
// emitted biclique set, with all ids mapped back to g's id space
// (orderings are applied internally, exactly as the public API does).
// A run that stops early (deadline, budget, panic) returns an error: a
// partial digest is not comparable.
func Run(g *graph.Bipartite, c Config) (Digest, error) {
	return RunMapped(g, c, nil)
}

// RunMapped is Run with an extra id-space translation applied to every
// biclique before fingerprinting — the hook the metamorphic checks use to
// compare a transformed graph's enumeration against the original's.
func RunMapped(g *graph.Bipartite, c Config, mb MapBack) (Digest, error) {
	plan, err := engine.Resolve(g, c.Order, c.Seed)
	if err != nil {
		return Digest{}, fmt.Errorf("difftest: %s: %w", c, err)
	}

	var d Digest
	var mbErr error
	handler := func(L, R []int32) {
		// Emission is serialized by the engines (the default contract), so
		// the digest is safe here.
		if mb != nil {
			var merr error
			if L, R, merr = mb(L, R); merr != nil {
				if mbErr == nil {
					mbErr = merr
				}
				return
			}
		}
		d.Observe(L, R)
	}
	if c.Fault != nil {
		handler = injectEmitFault(handler, *c.Fault)
	}

	res, err := engine.Run(plan, c.Engine, core.Options{Tau: c.Tau, Threads: c.Threads, OnBiclique: handler})
	if err != nil {
		return Digest{}, fmt.Errorf("difftest: %s: %w", c, err)
	}
	if res.StopReason != core.StopNone {
		return Digest{}, fmt.Errorf("difftest: %s: run stopped early (%s); digest not comparable", c, res.StopReason)
	}
	if mbErr != nil {
		return Digest{}, fmt.Errorf("difftest: %s: map back: %w", c, mbErr)
	}
	return d, nil
}

// injectEmitFault wraps a handler with a fresh, deterministic injector so
// repeated runs of the same Config mutate the same emission — a
// requirement for the minimizer, whose predicate re-runs the config many
// times.
func injectEmitFault(inner core.Handler, f FaultSpec) core.Handler {
	inj := faultinject.New(0)
	switch f.Kind {
	case "dup":
		inj.DupAt(EmitSite, f.Visit)
	default:
		inj.SkipAt(EmitSite, f.Visit)
	}
	hook := inj.Hook()
	return func(L, R []int32) {
		switch err := hook(EmitSite); {
		case errors.Is(err, faultinject.ErrSkip):
			// drop the biclique
		case errors.Is(err, faultinject.ErrDup):
			inner(L, R)
			inner(L, R)
		default:
			inner(L, R)
		}
	}
}

// BruteDigest computes the oracle digest by exhaustive enumeration
// (|V| ≤ core.MaxBruteForceV).
func BruteDigest(g *graph.Bipartite) Digest {
	var d Digest
	core.BruteForce(g, d.Observe)
	return d
}

// Mismatch records one differential disagreement: two configs whose
// digests differ on a graph.
type Mismatch struct {
	Graph *graph.Bipartite
	A, B  Config
	DigA  Digest
	DigB  Digest
}

func (m Mismatch) String() string {
	return fmt.Sprintf("difftest: digest mismatch on %dx%d graph (|E|=%d):\n  [%s] %s\n  [%s] %s",
		m.Graph.NU(), m.Graph.NV(), m.Graph.NumEdges(), m.A, m.DigA, m.B, m.DigB)
}

// Sweep runs every config against the first (the reference) and returns
// all digest disagreements. Harness errors (a config that cannot run to
// completion) are returned as err and abort the sweep; disagreements do
// not.
func Sweep(g *graph.Bipartite, configs []Config) ([]Mismatch, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	ref, err := Run(g, configs[0])
	if err != nil {
		return nil, err
	}
	var out []Mismatch
	for _, c := range configs[1:] {
		d, err := Run(g, c)
		if err != nil {
			return out, err
		}
		if !d.Equal(ref) {
			out = append(out, Mismatch{Graph: g, A: configs[0], B: c, DigA: ref, DigB: d})
		}
	}
	return out, nil
}
