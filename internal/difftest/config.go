package difftest

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/order"
)

// Engine identifies one enumeration implementation: a row of the engine
// registry (internal/engine), which also says whether it runs in
// parallel.
type Engine = engine.ID

// The engines under test: the four serial AdaMBE-family variants,
// ParAdaMBE, the five competitor baselines and the post-paper BBK engine.
const (
	EngBaseline = engine.Baseline  // core Baseline (Algorithm 1)
	EngLN       = engine.AdaMBELN  // core AdaMBE-LN
	EngBIT      = engine.AdaMBEBIT // core AdaMBE-BIT
	EngAda      = engine.AdaMBE    // core AdaMBE (Algorithm 2)
	EngParAda   = engine.ParAdaMBE // ParAdaMBE (AdaMBE under the work-stealing pool)
	EngFMBE     = engine.FMBE
	EngPMBE     = engine.PMBE
	EngOOMBEA   = engine.OOMBEA
	EngParMBE   = engine.ParMBE
	EngGMBE     = engine.GMBESim
	EngBBK      = engine.BBK // pivot-based bipartite Bron–Kerbosch
)

// Engines lists every engine the differential harness covers, in the
// registry's menu order.
func Engines() []Engine {
	var out []Engine
	for _, e := range engine.All() {
		out = append(out, e.ID)
	}
	return out
}

// FaultSpec is a seeded emission mutation the runner injects through
// internal/faultinject at EmitSite: exactly one biclique (the Visit-th
// emitted) is dropped ("skip") or delivered twice ("dup"). It simulates
// the class of bug the fingerprint digests exist to catch, and is what
// the end-to-end shrinker test arms.
type FaultSpec struct {
	Kind  string // "skip" or "dup"
	Visit uint64 // 1-based emission index the fault fires at
}

func (f FaultSpec) String() string { return fmt.Sprintf("%s@%d", f.Kind, f.Visit) }

// ParseFaultSpec inverts FaultSpec.String ("skip@3", "dup@1").
func ParseFaultSpec(s string) (FaultSpec, error) {
	kind, at, ok := strings.Cut(s, "@")
	if !ok || (kind != "skip" && kind != "dup") {
		return FaultSpec{}, fmt.Errorf("difftest: malformed fault spec %q", s)
	}
	visit, err := strconv.ParseUint(at, 10, 64)
	if err != nil || visit == 0 {
		return FaultSpec{}, fmt.Errorf("difftest: malformed fault visit in %q", s)
	}
	return FaultSpec{Kind: kind, Visit: visit}, nil
}

// Config pins one cell of the differential matrix: an engine, the V-side
// processing order applied to the input (all engines run on the permuted
// graph with emitted ids mapped back, so digests are comparable across
// orderings), the thread count, τ, and an optional injected emission
// fault. Configs are value types and serialize losslessly via String /
// ParseConfig for repro files.
type Config struct {
	Engine  Engine
	Order   order.Kind
	Seed    int64 // ordering seed (order.Random)
	Threads int   // 0 or 1 = serial; >1 only for Parallel() engines
	Tau     int   // 0 = core.DefaultTau; AdaMBE family only
	Fault   *FaultSpec
}

// String renders the config as "engine=… order=… seed=… threads=… tau=…
// [fault=…]"; ParseConfig inverts it.
func (c Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s order=%s seed=%d threads=%d tau=%d",
		c.Engine, c.Order, c.Seed, c.Threads, c.Tau)
	if c.Fault != nil {
		fmt.Fprintf(&b, " fault=%s", c.Fault)
	}
	return b.String()
}

// ParseConfig inverts Config.String.
func ParseConfig(s string) (Config, error) {
	var c Config
	for _, field := range strings.Fields(s) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("difftest: malformed config field %q", field)
		}
		var err error
		switch key {
		case "engine":
			var e engine.Engine
			e, err = engine.Parse(val)
			c.Engine = e.ID
		case "order":
			c.Order, err = engine.ParseOrdering(val)
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		case "threads":
			c.Threads, err = strconv.Atoi(val)
		case "tau":
			c.Tau, err = strconv.Atoi(val)
		case "fault":
			var f FaultSpec
			if f, err = ParseFaultSpec(val); err == nil {
				c.Fault = &f
			}
		default:
			return Config{}, fmt.Errorf("difftest: unknown config field %q", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	return c, nil
}

// MatrixOpts scales the differential matrix.
type MatrixOpts struct {
	// Threads are the counts tried for parallel-capable engines (serial
	// engines always run with 1). Default {1, 4, 8}.
	Threads []int
	// Orders are the V-side orderings swept. Default ASC, RAND, UC.
	Orders []order.Kind
	// Seed feeds the random ordering.
	Seed int64
	// Tau overrides τ for the AdaMBE family (0 = default).
	Tau int
}

// Matrix expands the full engine × ordering × thread-count cross product.
// The first config is always the reference cell (serial AdaMBE, first
// ordering) that Sweep compares every other cell against.
func Matrix(o MatrixOpts) []Config {
	threads := o.Threads
	if len(threads) == 0 {
		threads = []int{1, 4, 8}
	}
	orders := o.Orders
	if len(orders) == 0 {
		orders = []order.Kind{order.DegreeAscending, order.Random, order.UnilateralCore}
	}
	var out []Config
	out = append(out, Config{Engine: EngAda, Order: orders[0], Seed: o.Seed, Threads: 1, Tau: o.Tau})
	for _, e := range Engines() {
		ts := []int{1}
		if e.Parallel() {
			ts = threads
		}
		for _, k := range orders {
			for _, t := range ts {
				c := Config{Engine: e, Order: k, Seed: o.Seed, Threads: t, Tau: o.Tau}
				if c == out[0] {
					continue // reference cell already present
				}
				out = append(out, c)
			}
		}
	}
	return out
}
