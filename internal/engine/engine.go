// Package engine is the one contract between the enumeration engines
// (internal/core and internal/baselines) and everything that runs them:
// the public API and its spool path, the distributed worker, the figure
// harness and the differential harness. It owns three decisions:
//
//   - the registry: one row per engine, with its names, the package and
//     variant that run it, whether it runs in parallel and whether it
//     honours the root-partition contract;
//   - the ordering plan: the V-side ordering spellings, and the ordered
//     graph, permutation and R-side map-back an ordering resolves to;
//   - the run: Run is the only dispatch from an engine to core.Enumerate
//     or baselines.Run, and RunSpooled is the only owner of the
//     checkpointed spool protocol.
//
// The root-partition contract: over the ordered graph, the engine emits
// every maximal biclique exactly once, under its root min(R), restricted
// to a [StartRoot, EndRoot) range, with an optional Sink and Frontier.
// Disjoint ranges partition the output, so spool checkpoints, resumes and
// distributed shards are exact for every engine that honours it.
package engine

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
)

// ID names a registered engine. The values are those of the public
// mbe.Algorithm constants.
type ID int

// The registered engines.
const (
	AdaMBE ID = iota
	ParAdaMBE
	Baseline
	AdaMBELN
	AdaMBEBIT
	FMBE
	PMBE
	OOMBEA
	ParMBE
	GMBESim
	BBK
)

// Engine is one registry row.
type Engine struct {
	ID ID
	// Name is the canonical CLI/API spelling; Display, when non-empty, is
	// the distinct String form.
	Name    string
	Display string
	// Alg is the internal/baselines engine that runs it; empty means
	// internal/core runs it as Variant.
	Alg     baselines.Algorithm
	Variant core.Variant
	// Parallel engines honour Threads > 1.
	Parallel bool
	// Partition engines honour the root-partition contract: the V
	// ordering, Sink, Frontier, root ranges and hence the spool. The
	// paper competitors do not, and apply their own papers' orderings.
	Partition bool
}

// registry is the single source of truth for every engine, in menu
// order: the AdaMBE family in the paper's ablation order, then every
// other engine sorted case-insensitively by name.
var registry = []Engine{
	{ID: AdaMBE, Name: "AdaMBE", Variant: core.Ada, Partition: true},
	{ID: ParAdaMBE, Name: "ParAdaMBE", Variant: core.Ada, Parallel: true, Partition: true},
	{ID: Baseline, Name: "Baseline", Variant: core.Baseline, Partition: true},
	{ID: AdaMBELN, Name: "AdaMBE-LN", Variant: core.LN, Partition: true},
	{ID: AdaMBEBIT, Name: "AdaMBE-BIT", Variant: core.BIT, Partition: true},
	{ID: BBK, Name: "BBK", Alg: baselines.BBK, Partition: true},
	{ID: FMBE, Name: "FMBE", Alg: baselines.FMBE},
	{ID: GMBESim, Name: "GMBE", Display: "GMBE-sim", Alg: baselines.GMBE, Parallel: true},
	{ID: OOMBEA, Name: "ooMBEA", Alg: baselines.OOMBEA},
	{ID: ParMBE, Name: "ParMBE", Alg: baselines.ParMBE, Parallel: true},
	{ID: PMBE, Name: "PMBE", Alg: baselines.PMBE},
}

// All returns every registry row in menu order. The slice is shared:
// do not modify it.
func All() []Engine { return registry }

// Engine returns id's registry row.
func (id ID) Engine() (Engine, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Engine{}, false
}

// String returns the engine's name as used in the paper.
func (id ID) String() string {
	if e, ok := id.Engine(); ok {
		return e.String()
	}
	return fmt.Sprintf("Algorithm(%d)", int(id))
}

// Parallel reports whether the engine honours Threads > 1.
func (id ID) Parallel() bool {
	e, _ := id.Engine()
	return e.Parallel
}

// String returns the display form, or the name when there is none.
func (e Engine) String() string {
	if e.Display != "" {
		return e.Display
	}
	return e.Name
}

// Core reports whether internal/core runs the engine (and so whether it
// carries the live observability probes).
func (e Engine) Core() bool { return e.Alg == "" }

// Width is the number of emitting workers a run at the given thread
// count uses: the thread count (at least 1) for a parallel engine, 1
// otherwise. Spool shards and per-worker sink scratch are sized by it.
func (e Engine) Width(threads int) int {
	if !e.Parallel || threads < 1 {
		return 1
	}
	return threads
}

// Names lists the canonical spellings of the engines keep accepts (all
// of them when keep is nil), in menu order.
func Names(keep func(Engine) bool) []string {
	var names []string
	for _, e := range registry {
		if keep == nil || keep(e) {
			names = append(names, e.Name)
		}
	}
	return names
}

// Partition is the Names filter for the root-partition engines.
func Partition(e Engine) bool { return e.Partition }

// Parse maps a name or display form to its engine, case-insensitively.
func Parse(name string) (Engine, error) {
	for _, e := range registry {
		if strings.EqualFold(name, e.Name) || (e.Display != "" && strings.EqualFold(name, e.Display)) {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("unknown algorithm %q (want %s)", name, strings.Join(Names(nil), "|"))
}

// errNoPartition is the error for a root-partition feature asked of an
// engine that does not honour the contract.
func errNoPartition(e Engine) error {
	return fmt.Errorf("engine: root ranges and the spool are only supported by %s, not %s",
		strings.Join(Names(Partition), "|"), e)
}
