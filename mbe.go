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
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
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

// Algorithm selects the enumeration algorithm. Its names, parallelism
// and support for orderings, root ranges and the spool come from one
// registry (internal/engine).
type Algorithm int

const (
	// AdaMBE is the paper's serial algorithm (Algorithm 2): local
	// neighborhoods + adaptive bitmaps. The default.
	AdaMBE = Algorithm(engine.AdaMBE)
	// ParAdaMBE is the shared-memory parallel AdaMBE.
	ParAdaMBE = Algorithm(engine.ParAdaMBE)
	// BaselineMBE is Algorithm 1 without LN or BIT (for ablations).
	BaselineMBE = Algorithm(engine.Baseline)
	// AdaMBELN enables only the local-neighborhood technique.
	AdaMBELN = Algorithm(engine.AdaMBELN)
	// AdaMBEBIT enables only the bitmap technique.
	AdaMBEBIT = Algorithm(engine.AdaMBEBIT)
	// FMBE, PMBE, OOMBEA are the serial competitors; ParMBE and GMBESim
	// the parallel ones (GMBESim is the CPU simulation of the GPU
	// algorithm GMBE).
	FMBE    = Algorithm(engine.FMBE)
	PMBE    = Algorithm(engine.PMBE)
	OOMBEA  = Algorithm(engine.OOMBEA)
	ParMBE  = Algorithm(engine.ParMBE)
	GMBESim = Algorithm(engine.GMBESim)
	// BBK is the pivot-based bipartite Bron–Kerbosch of Baudin et al.
	// (arXiv:2405.04428), a post-paper serial engine. Unlike the paper
	// competitors it honors Ordering and supports the durable spool
	// (SpoolDir/Resume).
	BBK = Algorithm(engine.BBK)
)

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string { return engine.ID(a).String() }

// AlgorithmNames lists the CLI/API spellings accepted by ParseAlgorithm,
// in menu order: the AdaMBE family first, then the remaining engines
// sorted case-insensitively.
var AlgorithmNames = engine.Names(nil)

// ParseAlgorithm maps a CLI/API algorithm name to its Algorithm,
// case-insensitively ("bbk" and "BBK" both work, as do display forms
// like "GMBE-sim"); the empty string is the default, AdaMBE. It is the
// shared flag plumbing of cmd/mbe and cmd/mbed, so a job submitted to
// the daemon accepts exactly the spellings the CLI does.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return AdaMBE, nil
	}
	e, err := engine.Parse(name)
	if err != nil {
		return 0, fmt.Errorf("mbe: %w", err)
	}
	return Algorithm(e.ID), nil
}

// OrderingNames lists the spellings accepted by ParseOrdering.
var OrderingNames = engine.OrderingNames

// ParseOrdering maps a CLI/API ordering name to its Ordering,
// case-insensitively; the empty string is the default, ascending degree.
func ParseOrdering(name string) (Ordering, error) {
	if name == "" {
		return OrderAscendingDegree, nil
	}
	k, err := engine.ParseOrdering(name)
	if err != nil {
		return 0, fmt.Errorf("mbe: %w", err)
	}
	return Ordering(k), nil
}

// Ordering selects the V-side processing order for the AdaMBE family and
// BBK (the paper competitors use their own papers' defaults).
type Ordering int

const (
	// OrderAscendingDegree is AdaMBE's default (Fig. 12's winner).
	OrderAscendingDegree = Ordering(order.DegreeAscending)
	// OrderRandom shuffles V (seeded).
	OrderRandom = Ordering(order.Random)
	// OrderUnilateralCore is ooMBEA's UC order.
	OrderUnilateralCore = Ordering(order.UnilateralCore)
	// OrderNone keeps the input order.
	OrderNone = Ordering(order.None)
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
	// Ordering for the AdaMBE family and BBK; default ascending degree.
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
	e, ok := engine.ID(opts.Algorithm).Engine()
	if !ok {
		return Result{}, fmt.Errorf("mbe: unknown algorithm %d", int(opts.Algorithm))
	}
	ordering := order.Kind(opts.Ordering)
	if !e.Partition {
		ordering = order.None // the competitors apply their own papers' orderings
	}
	plan, err := engine.Resolve(g.b, ordering, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	threads := opts.Threads
	if threads == 0 && e.Parallel {
		threads = runtime.GOMAXPROCS(0)
	}
	run := core.Options{
		Tau:            opts.Tau,
		Threads:        threads,
		OnBiclique:     opts.OnBiclique,
		UnorderedEmit:  opts.UnorderedEmit,
		Deadline:       opts.Deadline,
		Context:        opts.Context,
		MaxMemoryBytes: opts.MaxMemoryBytes,
		Metrics:        opts.Metrics,
		Obs:            opts.Obs,
		StartRoot:      opts.StartRoot,
		EndRoot:        opts.EndRoot,
	}
	if opts.SpoolDir == "" {
		return engine.Run(plan, e.ID, run)
	}
	res, _, err := engine.RunSpooled(plan, e.ID, run, engine.Spool{
		Dir:      opts.SpoolDir,
		Tool:     "mbe",
		Resume:   opts.Resume,
		Every:    opts.Checkpoint.Every,
		Fsync:    opts.SpoolFsync,
		Compress: opts.SpoolCompress,
		OnWarn:   opts.OnWarning,
	})
	return res, err
}

// Count enumerates with default options (serial AdaMBE) and returns only
// the number of maximal bicliques.
func Count(g *Graph) (int64, error) {
	res, err := Enumerate(g, Options{})
	return res.Count, err
}
