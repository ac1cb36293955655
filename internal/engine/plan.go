package engine

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
)

// orderings is the ordering table: each V-side ordering's canonical
// spelling, which is also the tag a spool meta and a dist manifest
// record. Parsing is case-insensitive.
var orderings = []struct {
	name string
	kind order.Kind
}{
	{"asc", order.DegreeAscending},
	{"rand", order.Random},
	{"uc", order.UnilateralCore},
	{"none", order.None},
}

// OrderingNames lists the accepted ordering spellings.
var OrderingNames = func() []string {
	names := make([]string, len(orderings))
	for i, o := range orderings {
		names[i] = o.name
	}
	return names
}()

// ParseOrdering maps an ordering spelling to its kind. The empty string
// is not a spelling: callers that default it say so themselves.
func ParseOrdering(name string) (order.Kind, error) {
	for _, o := range orderings {
		if strings.EqualFold(name, o.name) {
			return o.kind, nil
		}
	}
	return 0, fmt.Errorf("unknown ordering %q (want %s)", name, strings.Join(OrderingNames, "|"))
}

// OrderingName returns k's canonical spelling.
func OrderingName(k order.Kind) (string, bool) {
	for _, o := range orderings {
		if o.kind == k {
			return o.name, true
		}
	}
	return "", false
}

// Plan is an ordering resolved against a graph: what every engine run
// and spool session is keyed by.
type Plan struct {
	// Source is the input graph; emitted ids are reported in its id space.
	Source *graph.Bipartite
	// Graph is Source with the ordering applied; engines run on it, and
	// root ids (StartRoot, EndRoot, watermarks) live in its id space.
	Graph *graph.Bipartite
	// Perm maps a Graph V id to its Source V id; nil for order.None.
	Perm     []int32
	Ordering order.Kind
	Seed     int64
}

// Resolve applies ordering k (seed feeds order.Random) to g.
func Resolve(g *graph.Bipartite, k order.Kind, seed int64) (Plan, error) {
	if _, ok := OrderingName(k); !ok {
		return Plan{}, fmt.Errorf("engine: unknown ordering %d", int(k))
	}
	p := Plan{Source: g, Graph: g, Ordering: k, Seed: seed}
	if k == order.None {
		return p, nil
	}
	p.Perm = order.Permutation(g, k, seed)
	var err error
	if p.Graph, err = g.PermuteV(p.Perm); err != nil {
		return Plan{}, fmt.Errorf("engine: apply ordering: %w", err)
	}
	return p, nil
}

// MapBack returns h with the R side of every biclique mapped from the
// ordered id space back to Source's. concurrent must be set when h is
// called from several goroutines at once (UnorderedEmit): each call then
// maps into its own buffer instead of a shared one.
func (p Plan) MapBack(h core.Handler, concurrent bool) core.Handler {
	if h == nil || p.Perm == nil {
		return h
	}
	perm := p.Perm
	if concurrent {
		return func(L, R []int32) {
			m := make([]int32, 0, len(R))
			for _, v := range R {
				m = append(m, perm[v])
			}
			h(L, m)
		}
	}
	m := make([]int32, 0, 64)
	return func(L, R []int32) {
		m = m[:0]
		for _, v := range R {
			m = append(m, perm[v])
		}
		h(L, m)
	}
}
