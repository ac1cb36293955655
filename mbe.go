// Package mbe is a library for maximal biclique enumeration (MBE) in
// bipartite graphs, implementing AdaMBE and ParAdaMBE from
//
//	Pan et al., "Enumeration of Billions of Maximal Bicliques in
//	Bipartite Graphs without Using GPUs", SC 2024,
//
// together with the competitor algorithms the paper evaluates (FMBE, PMBE,
// ooMBEA, ParMBE and a CPU simulation of the GPU algorithm GMBE), vertex
// orderings, synthetic dataset generators, and an experiment harness that
// regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	g, err := mbe.LoadKonect("out.github")          // or mbe.Dataset("GH")
//	res, err := mbe.Enumerate(g, mbe.Options{
//	    Algorithm: mbe.ParAdaMBE,
//	    OnBiclique: func(L, R []int32) { /* slices are reused: copy to keep */ },
//	})
//	fmt.Println(res.Count, res.Elapsed)
//
// The enumeration convention follows the paper: a maximal biclique (L, R)
// has L ⊆ U, R ⊆ V, both non-empty, contains every edge between L and R,
// and is not contained in any larger biclique.
package mbe

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/spool"
)

// Graph is an immutable bipartite graph G(U, V, E). Obtain one from
// LoadKonect, FromEdges, a generator, or the Dataset registry.
type Graph struct {
	b *graph.Bipartite
}

// Edge is a single (U-side, V-side) edge.
type Edge = graph.Edge

// Stats summarizes a graph (Table I-style row).
type Stats = graph.Stats

// FromEdges builds a graph with the given side sizes from an edge list;
// duplicate edges collapse.
func FromEdges(nu, nv int, edges []Edge) (*Graph, error) {
	b, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		return nil, err
	}
	return &Graph{b}, nil
}

// LoadKonect reads a KONECT-format edge list ("u v [weight [ts]]" lines,
// '%' comments) from a file, compacting ids and orienting the graph so the
// smaller side is V, as in the paper's setup.
func LoadKonect(path string) (*Graph, error) {
	b, err := graph.ReadKonectFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{b}, nil
}

// ReadKonect is LoadKonect over an io.Reader.
func ReadKonect(r io.Reader) (*Graph, error) {
	b, err := graph.ReadKonect(r)
	if err != nil {
		return nil, err
	}
	return &Graph{b}, nil
}

// Dataset builds a named synthetic dataset analogue from the registry
// ("GH", "BX", "ceb", "LJ30", …); see internal/datasets for the catalogue.
func Dataset(name string) (*Graph, error) {
	s, ok := datasets.ByName(name)
	if !ok {
		return nil, fmt.Errorf("mbe: unknown dataset %q", name)
	}
	return &Graph{s.Build()}, nil
}

// GenerateUniform returns a uniform random bipartite graph with ~m edges.
func GenerateUniform(seed int64, nu, nv, m int) *Graph {
	return &Graph{gen.Uniform(seed, nu, nv, m)}
}

// GeneratePowerLaw returns a Zipf-degree-skewed bipartite graph.
func GeneratePowerLaw(seed int64, nu, nv, m int, sU, sV float64) *Graph {
	return &Graph{gen.PowerLaw(seed, nu, nv, m, sU, sV)}
}

// AffiliationConfig parameterizes GenerateAffiliation.
type AffiliationConfig = gen.AffiliationConfig

// GenerateAffiliation returns a planted-overlapping-community graph — the
// structure behind membership/rating datasets whose maximal-biclique
// counts explode.
func GenerateAffiliation(seed int64, cfg AffiliationConfig) *Graph {
	return &Graph{gen.Affiliation(seed, cfg)}
}

// NU returns |U|.
func (g *Graph) NU() int { return g.b.NU() }

// NV returns |V|.
func (g *Graph) NV() int { return g.b.NV() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int64 { return g.b.NumEdges() }

// Stats computes summary statistics.
func (g *Graph) Stats() Stats { return graph.Summarize(g.b) }

// Orient returns the graph with the smaller side designated V (the paper's
// dataset convention). Loaders orient automatically.
func (g *Graph) Orient() *Graph { return &Graph{g.b.Orient()} }

// NeighborsOfV returns the sorted U-neighbors of v; the slice must not be
// modified.
func (g *Graph) NeighborsOfV(v int32) []int32 { return g.b.NeighborsOfV(v) }

// NeighborsOfU returns the sorted V-neighbors of u; the slice must not be
// modified.
func (g *Graph) NeighborsOfU(u int32) []int32 { return g.b.NeighborsOfU(u) }

// HasEdge reports whether (u, v) ∈ E.
func (g *Graph) HasEdge(u, v int32) bool { return g.b.HasEdge(u, v) }

// Signature returns the graph's identity hash — dimensions plus a
// degree-sequence hash, the same value a spool's meta file records.
// The enumeration server keys its graph store and result cache on it.
func (g *Graph) Signature() string { return spool.GraphSignature(g.b) }

// WriteEdgeList writes the graph in KONECT text format (0-based ids).
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.b.WriteEdgeList(w) }

// WriteBinary / ReadBinary give a fast binary cache format for large
// generated graphs.
func (g *Graph) WriteBinary(w io.Writer) error { return g.b.WriteBinary(w) }

// ReadBinary reads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	b, err := graph.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return &Graph{b}, nil
}

// Algorithm selects the enumeration algorithm.
type Algorithm int

const (
	// AdaMBE is the paper's serial algorithm (Algorithm 2): local
	// neighborhoods + adaptive bitmaps. The default.
	AdaMBE Algorithm = iota
	// ParAdaMBE is the shared-memory parallel AdaMBE.
	ParAdaMBE
	// BaselineMBE is Algorithm 1 without LN or BIT (for ablations).
	BaselineMBE
	// AdaMBELN enables only the local-neighborhood technique.
	AdaMBELN
	// AdaMBEBIT enables only the bitmap technique.
	AdaMBEBIT
	// FMBE, PMBE, OOMBEA are the serial competitors; ParMBE and GMBESim
	// the parallel ones (GMBESim is the CPU simulation of the GPU
	// algorithm GMBE).
	FMBE
	PMBE
	OOMBEA
	ParMBE
	GMBESim
	// BBK is the pivot-based bipartite Bron–Kerbosch of Baudin et al.
	// (arXiv:2405.04428), a post-paper serial engine. Unlike the paper
	// competitors it honors Ordering and supports the durable spool
	// (SpoolDir/Resume).
	BBK
)

// algorithmTable is the single source of truth for every Algorithm's
// spellings: String, AlgorithmNames and ParseAlgorithm all derive from
// it, so the CLI/daemon help and the "want a|b|…" error can never drift
// from the enum (TestAlgorithmTableDrift pins this). Menu order: the
// AdaMBE family in the paper's ablation order, then every other engine
// sorted case-insensitively by name. name is the canonical CLI/API
// spelling; display, when non-empty, is the distinct String() form.
var algorithmTable = []struct {
	alg     Algorithm
	name    string
	display string
}{
	{alg: AdaMBE, name: "AdaMBE"},
	{alg: ParAdaMBE, name: "ParAdaMBE"},
	{alg: BaselineMBE, name: "Baseline"},
	{alg: AdaMBELN, name: "AdaMBE-LN"},
	{alg: AdaMBEBIT, name: "AdaMBE-BIT"},
	{alg: BBK, name: "BBK"},
	{alg: FMBE, name: "FMBE"},
	{alg: GMBESim, name: "GMBE", display: "GMBE-sim"},
	{alg: OOMBEA, name: "ooMBEA"},
	{alg: ParMBE, name: "ParMBE"},
	{alg: PMBE, name: "PMBE"},
}

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string {
	for _, e := range algorithmTable {
		if e.alg == a {
			if e.display != "" {
				return e.display
			}
			return e.name
		}
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmNames lists the CLI/API spellings accepted by ParseAlgorithm,
// in menu order: the AdaMBE family first, then the remaining engines
// sorted case-insensitively. Derived from the same table as String and
// ParseAlgorithm.
var AlgorithmNames = func() []string {
	names := make([]string, len(algorithmTable))
	for i, e := range algorithmTable {
		names[i] = e.name
	}
	return names
}()

// ParseAlgorithm maps a CLI/API algorithm name to its Algorithm,
// case-insensitively ("bbk" and "BBK" both work, as do display forms
// like "GMBE-sim"); the empty string is the default, AdaMBE. It is the
// shared flag plumbing of cmd/mbe and cmd/mbed, so a job submitted to
// the daemon accepts exactly the spellings the CLI does.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return AdaMBE, nil
	}
	for _, e := range algorithmTable {
		if strings.EqualFold(name, e.name) || (e.display != "" && strings.EqualFold(name, e.display)) {
			return e.alg, nil
		}
	}
	return 0, fmt.Errorf("mbe: unknown algorithm %q (want %s)", name, strings.Join(AlgorithmNames, "|"))
}

// OrderingNames lists the spellings accepted by ParseOrdering.
var OrderingNames = []string{"asc", "rand", "uc", "none"}

// ParseOrdering maps a CLI/API ordering name to its Ordering.
func ParseOrdering(name string) (Ordering, error) {
	switch name {
	case "asc", "":
		return OrderAscendingDegree, nil
	case "rand":
		return OrderRandom, nil
	case "uc":
		return OrderUnilateralCore, nil
	case "none":
		return OrderNone, nil
	}
	return 0, fmt.Errorf("mbe: unknown ordering %q (want %s)", name, strings.Join(OrderingNames, "|"))
}

// Ordering selects the V-side processing order for the AdaMBE family and
// BBK (the paper competitors use their own papers' defaults).
type Ordering int

const (
	// OrderAscendingDegree is AdaMBE's default (Fig. 12's winner).
	OrderAscendingDegree Ordering = iota
	// OrderRandom shuffles V (seeded).
	OrderRandom
	// OrderUnilateralCore is ooMBEA's UC order.
	OrderUnilateralCore
	// OrderNone keeps the input order.
	OrderNone
)

// Handler receives each maximal biclique. Slices are reused by the engine:
// copy them to retain. Parallel algorithms serialize handler calls unless
// Options.UnorderedEmit is set.
type Handler = core.Handler

// Metrics exposes the instrumentation counters behind the paper's
// motivation and breakdown figures (see core.Metrics).
type Metrics = core.Metrics

// Recorder is a live observability hub: attach one via Options.Obs and its
// Snapshot method (or the /debug/progress endpoint, see internal/obs) shows
// in-flight node/biclique counts, per-worker states and root-frontier
// progress while Enumerate is still running. See docs/OBSERVABILITY.md.
type Recorder = obs.Recorder

// RunInfo identifies a run on a Recorder's snapshots and events.
type RunInfo = obs.RunInfo

// NewRecorder returns a Recorder describing one upcoming run.
func NewRecorder(info RunInfo) *Recorder { return obs.NewRecorder(info) }

// Result summarizes an enumeration run.
type Result = core.Result

// StopReason reports why a run returned before exhausting the search tree
// (Result.StopReason); StopNone means the run completed.
type StopReason = core.StopReason

// The stop reasons a Result can carry.
const (
	StopNone         = core.StopNone
	StopDeadline     = core.StopDeadline
	StopCanceled     = core.StopCanceled
	StopMemoryBudget = core.StopMemoryBudget
	StopPanic        = core.StopPanic
)

// ErrPanic is wrapped by the error Enumerate returns when a worker
// panicked; the run still winds down cleanly with partial results.
var ErrPanic = core.ErrPanic

// Options configures Enumerate. The zero value runs serial AdaMBE with
// τ = core.DefaultTau (256) and ascending-degree ordering.
type Options struct {
	// Algorithm to run; default AdaMBE.
	Algorithm Algorithm
	// Tau is the bitmap threshold τ (AdaMBE family); 0 = core.DefaultTau
	// (256). The paper fixes τ = 64.
	Tau int
	// Threads for the parallel algorithms; 0 = GOMAXPROCS.
	Threads int
	// Ordering for the AdaMBE family; default ascending degree.
	Ordering Ordering
	// Seed for OrderRandom.
	Seed int64
	// OnBiclique receives every maximal biclique, if non-nil.
	OnBiclique Handler
	// UnorderedEmit lifts the serialized-delivery guarantee for ParAdaMBE:
	// workers call OnBiclique directly and concurrently instead of batching
	// under a shared lock. The handler must be safe for concurrent use.
	// Ignored by the serial algorithms and the competitors.
	UnorderedEmit bool
	// Deadline stops the run early with partial counts and
	// Result.StopReason == StopDeadline.
	Deadline time.Time
	// Context, if non-nil, stops the run when canceled (e.g. on SIGINT via
	// signal.NotifyContext); partial counts are returned with
	// Result.StopReason == StopCanceled.
	Context context.Context
	// MaxMemoryBytes, if positive, is a soft budget on engine-tracked
	// memory (slab scratch, bitmap CGs, parallel task copies, hash/bitmap
	// representations of the competitors). Exceeding it stops the run with
	// partial counts and Result.StopReason == StopMemoryBudget.
	MaxMemoryBytes int64
	// Metrics, if non-nil, gathers instrumentation (AdaMBE family and
	// BBK; the paper competitors ignore it).
	Metrics *Metrics
	// Obs, if non-nil, receives live progress: in-flight counters, worker
	// states and root-frontier advance, snapshottable mid-run (AdaMBE
	// family only). Unlike Metrics, which is merged once at the end, Obs
	// is readable while the run is in flight.
	Obs *Recorder

	// StartRoot and EndRoot bound the run to the root range
	// [StartRoot, EndRoot) of V — interpreted after Ordering is applied,
	// i.e. in the same permuted root order a spool checkpoint watermark
	// uses. EndRoot == 0 means |V|. Every maximal biclique whose minimal
	// R-vertex (in the ordered id space) falls inside the range is emitted
	// exactly once and no others, so disjoint ranges partition the full
	// output — the contract the distributed coordinator (internal/dist,
	// docs/DISTRIBUTED.md) shards on. AdaMBE family and BBK only; an empty
	// or reversed range, or one combined with SpoolDir/Resume (a spool
	// manages its own root frontier) or a paper competitor, is an error.
	StartRoot int32
	EndRoot   int32

	// SpoolDir, if non-empty, streams every maximal biclique to a durable
	// sharded on-disk spool in that directory (created if absent) and
	// periodically checkpoints the run so an interrupted enumeration can
	// be resumed with Resume — see docs/DURABILITY.md. AdaMBE family and
	// BBK only. OnBiclique still fires if set; a spooled run does not
	// need one. Read results back with ReadSpool or SpoolDigest.
	SpoolDir string
	// Resume continues an interrupted spooled run: the spool in SpoolDir
	// is rewound to its last checkpoint and enumeration restarts at the
	// checkpoint watermark. Graph, Ordering and Seed must match the
	// original run (validated); Algorithm, Tau and Threads may differ.
	// Resuming a spool whose checkpoint is marked complete is a no-op
	// returning a zero count. Requires SpoolDir.
	Resume bool
	// SpoolFsync selects the spool's durability/throughput trade-off;
	// the zero value fsyncs at checkpoints only.
	SpoolFsync SpoolFsync
	// SpoolCompress flate-compresses spool frames (per-frame, skipped
	// when a frame doesn't shrink).
	SpoolCompress bool
	// Checkpoint tunes checkpointing; the zero value checkpoints every
	// 10s while a spooled run is in flight.
	Checkpoint CheckpointOptions
	// OnWarning, if non-nil, receives recoverable anomalies a run chose
	// to degrade around instead of failing — today a torn/truncated
	// checkpoint.json found on Resume, which restarts the spool from
	// scratch (see docs/DURABILITY.md). nil drops the warnings.
	OnWarning func(error)
}

// SpoolFsync is the spool fsync policy; see FsyncCheckpoint (default),
// FsyncNever, FsyncAlways.
type SpoolFsync = spool.FsyncMode

// The spool fsync policies.
const (
	// FsyncCheckpoint (default): shards are fsynced when a checkpoint is
	// written; a checkpoint never claims data the OS could still lose.
	FsyncCheckpoint = spool.FsyncCheckpoint
	// FsyncNever: no fsync ever; checkpoints survive process death but
	// not OS crashes.
	FsyncNever = spool.FsyncNever
	// FsyncAlways: fsync after every frame.
	FsyncAlways = spool.FsyncAlways
)

// CheckpointOptions tunes the checkpoint cadence of a spooled run.
type CheckpointOptions struct {
	// Every is the wall-clock interval between checkpoints; 0 means 10s,
	// negative disables periodic checkpoints (one is still written when
	// the run ends, however it ends).
	Every time.Duration
}

// Enumerate runs the configured algorithm and returns the result. The
// reported ids are always in g's id space.
func Enumerate(g *Graph, opts Options) (Result, error) {
	if opts.Resume && opts.SpoolDir == "" {
		return Result{}, fmt.Errorf("mbe: Resume requires SpoolDir")
	}
	if (opts.StartRoot != 0 || opts.EndRoot != 0) && opts.SpoolDir != "" {
		return Result{}, fmt.Errorf("mbe: StartRoot/EndRoot cannot be combined with SpoolDir (a spool manages its own root frontier)")
	}
	switch opts.Algorithm {
	case AdaMBE, ParAdaMBE, BaselineMBE, AdaMBELN, AdaMBEBIT:
		if opts.SpoolDir != "" {
			return enumerateSpooled(g, opts)
		}
		return enumerateCore(g, opts)
	case BBK:
		if opts.SpoolDir != "" {
			return enumerateSpooledBBK(g, opts)
		}
		return enumerateBBK(g, opts)
	case FMBE, PMBE, OOMBEA, ParMBE, GMBESim:
		if opts.SpoolDir != "" {
			return Result{}, fmt.Errorf("mbe: SpoolDir is only supported by the AdaMBE family and BBK, not %s", opts.Algorithm)
		}
		if opts.StartRoot != 0 || opts.EndRoot != 0 {
			return Result{}, fmt.Errorf("mbe: StartRoot/EndRoot are only supported by the AdaMBE family and BBK, not %s", opts.Algorithm)
		}
		alg := map[Algorithm]baselines.Algorithm{
			FMBE: baselines.FMBE, PMBE: baselines.PMBE, OOMBEA: baselines.OOMBEA,
			ParMBE: baselines.ParMBE, GMBESim: baselines.GMBE,
		}[opts.Algorithm]
		return baselines.Run(g.b, alg, baselines.Options{
			Threads:        opts.Threads,
			OnBiclique:     opts.OnBiclique,
			Deadline:       opts.Deadline,
			Context:        opts.Context,
			MaxMemoryBytes: opts.MaxMemoryBytes,
		})
	default:
		return Result{}, fmt.Errorf("mbe: unknown algorithm %d", int(opts.Algorithm))
	}
}

// resolveOrdering applies the requested V-side ordering: it returns the
// (possibly permuted) graph and the permutation used (nil for OrderNone).
// Shared by the AdaMBE-family paths and BBK — both pin the root
// decomposition to the ordering, which is what a spool's checkpoint
// watermark refers to.
func resolveOrdering(g *Graph, opts Options) (*graph.Bipartite, []int32, error) {
	b := g.b
	var perm []int32
	switch opts.Ordering {
	case OrderNone:
	case OrderAscendingDegree, OrderRandom, OrderUnilateralCore:
		kind := map[Ordering]order.Kind{
			OrderAscendingDegree: order.DegreeAscending,
			OrderRandom:          order.Random,
			OrderUnilateralCore:  order.UnilateralCore,
		}[opts.Ordering]
		perm = order.Permutation(b, kind, opts.Seed)
		var err error
		b, err = b.PermuteV(perm)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("mbe: unknown ordering %d", int(opts.Ordering))
	}
	return b, perm, nil
}

// resolveCoreRun maps an AdaMBE-family Options onto the core engine's
// inputs: the variant, the V-permuted graph, and the permutation used
// (nil for OrderNone).
func resolveCoreRun(g *Graph, opts Options) (*graph.Bipartite, core.Variant, []int32, error) {
	variant := map[Algorithm]core.Variant{
		AdaMBE: core.Ada, ParAdaMBE: core.Ada, BaselineMBE: core.Baseline,
		AdaMBELN: core.LN, AdaMBEBIT: core.BIT,
	}[opts.Algorithm]
	b, perm, err := resolveOrdering(g, opts)
	if err != nil {
		return nil, variant, nil, err
	}
	return b, variant, perm, nil
}

// enumerateBBK runs the BBK engine with the mbe-level ordering applied
// and R ids mapped back to g's id space, like enumerateCore.
func enumerateBBK(g *Graph, opts Options) (Result, error) {
	b, perm, err := resolveOrdering(g, opts)
	if err != nil {
		return Result{}, err
	}
	return baselines.Run(b, baselines.BBK, baselines.Options{
		OnBiclique:     wrapMapBack(opts, perm),
		Deadline:       opts.Deadline,
		Context:        opts.Context,
		MaxMemoryBytes: opts.MaxMemoryBytes,
		Metrics:        opts.Metrics,
		StartRoot:      opts.StartRoot,
		EndRoot:        opts.EndRoot,
	})
}

// coreThreads resolves the effective parallel width (0 = serial).
func (o Options) coreThreads() int {
	if o.Algorithm != ParAdaMBE {
		return 0
	}
	if o.Threads == 0 {
		return defaultThreads()
	}
	return o.Threads
}

func enumerateCore(g *Graph, opts Options) (Result, error) {
	b, variant, perm, err := resolveCoreRun(g, opts)
	if err != nil {
		return Result{}, err
	}

	handler := wrapMapBack(opts, perm)

	return core.Enumerate(b, core.Options{
		Variant:        variant,
		Tau:            opts.Tau,
		Threads:        opts.coreThreads(),
		OnBiclique:     handler,
		UnorderedEmit:  opts.UnorderedEmit,
		Deadline:       opts.Deadline,
		Context:        opts.Context,
		MaxMemoryBytes: opts.MaxMemoryBytes,
		Metrics:        opts.Metrics,
		Obs:            opts.Obs,
		StartRoot:      opts.StartRoot,
		EndRoot:        opts.EndRoot,
	})
}

func defaultThreads() int { return runtime.GOMAXPROCS(0) }

// Count enumerates with default options (serial AdaMBE) and returns only
// the number of maximal bicliques.
func Count(g *Graph) (int64, error) {
	res, err := Enumerate(g, Options{})
	return res.Count, err
}
