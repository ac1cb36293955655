package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spool"
)

// Run runs engine id over the plan's ordered graph and reports
// OnBiclique's ids in the plan's source id space. The registry sets
// opts.Variant; opts.Threads reaches parallel engines only, as given (the
// caller owns its thread default). Sink, Frontier, StartRoot and EndRoot
// need a root-partition engine; a Sink sees R in the ordered id space
// and maps it back itself (see ckpt.Session.Sink). Options an engine
// does not read (Obs and Tau outside the core engines, Metrics outside
// the core engines and BBK) are ignored.
func Run(p Plan, id ID, opts core.Options) (core.Result, error) {
	e, ok := id.Engine()
	if !ok {
		return core.Result{}, fmt.Errorf("engine: unknown algorithm %d", int(id))
	}
	if !e.Partition && (opts.Sink != nil || opts.Frontier != nil || opts.StartRoot != 0 || opts.EndRoot != 0) {
		return core.Result{}, errNoPartition(e)
	}
	if !e.Parallel {
		opts.Threads = 0
	}
	opts.OnBiclique = p.MapBack(opts.OnBiclique, opts.UnorderedEmit)
	if e.Core() {
		opts.Variant = e.Variant
		return core.Enumerate(p.Graph, opts)
	}
	return baselines.Run(p.Graph, e.Alg, baselines.Options{
		Threads:        opts.Threads,
		OnBiclique:     opts.OnBiclique,
		Deadline:       opts.Deadline,
		Context:        opts.Context,
		MaxMemoryBytes: opts.MaxMemoryBytes,
		FaultHook:      opts.FaultHook,
		Metrics:        opts.Metrics,
		Sink:           opts.Sink,
		Frontier:       opts.Frontier,
		StartRoot:      opts.StartRoot,
		EndRoot:        opts.EndRoot,
	})
}

// Spool configures RunSpooled's durable output.
type Spool struct {
	// Dir is the spool directory; Tool is recorded in its meta.
	Dir  string
	Tool string
	// Resume continues the interrupted run in Dir from its checkpoint.
	Resume bool
	// Every is the checkpoint cadence (see ckpt.OpenOptions.Every).
	Every    time.Duration
	Fsync    spool.FsyncMode
	Compress bool
	// OnWarn receives recoverable resume anomalies (ckpt.OpenOptions.OnWarn).
	OnWarn func(error)
	// Wrap, if non-nil, wraps the session's sink before the run; the
	// differential harness interrupts runs through it.
	Wrap func(core.Sink) core.Sink
}

// RunSpooled is Run with every biclique streamed to a checkpointed
// spool. It owns the session protocol: open (or resume) the session,
// return at once if the spool is already complete, start the checkpoint
// ticker, run from the session's watermark, and finish the session as
// complete only if the run returned no error and StopNone. A spool write
// error cancels the run promptly (StopCanceled) rather than letting it
// grind on dropping output. The spool meta pins the plan's source graph,
// ordering and seed, so a resume under another ordering is refused. The
// returned session (nil if it failed to open) still answers Stats.
func RunSpooled(p Plan, id ID, opts core.Options, sp Spool) (core.Result, *ckpt.Session, error) {
	e, ok := id.Engine()
	if !ok {
		return core.Result{}, nil, fmt.Errorf("engine: unknown algorithm %d", int(id))
	}
	if !e.Partition {
		return core.Result{}, nil, errNoPartition(e)
	}
	ordering, _ := OrderingName(p.Ordering)
	workers := e.Width(opts.Threads)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sess, err := ckpt.Open(ckpt.OpenOptions{
		Dir: sp.Dir,
		Meta: spool.Meta{
			Version:   1,
			Tool:      sp.Tool,
			Algorithm: e.String(),
			Ordering:  ordering,
			OrderSeed: p.Seed,
			Tau:       opts.Tau,
			Shards:    workers,
			NU:        p.Source.NU(),
			NV:        p.Source.NV(),
			Edges:     p.Source.NumEdges(),
			GraphHash: spool.GraphSignature(p.Source),
			Compress:  sp.Compress,
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
		},
		Resume: sp.Resume,
		Every:  sp.Every,
		Writer: spool.WriterOptions{Fsync: sp.Fsync, OnError: func(error) { cancel() }},
		OnWarn: sp.OnWarn,
	})
	if err != nil {
		return core.Result{}, nil, err
	}
	if sess.AlreadyComplete() {
		return core.Result{StopReason: core.StopNone}, sess, nil
	}
	opts.Obs.SetSpoolStats(func() obs.SpoolStats {
		st := sess.Stats()
		return obs.SpoolStats{Bytes: st.Bytes, Frames: st.Frames, Records: st.Records, Fsyncs: st.Fsyncs}
	})
	var sink core.Sink = sess.Sink(p.Perm, workers)
	if sp.Wrap != nil {
		sink = sp.Wrap(sink)
	}
	opts.Context, opts.Sink, opts.Frontier, opts.StartRoot = ctx, sink, sess.Frontier(), sess.StartRoot()

	sess.Start()
	res, err := Run(p, id, opts)
	complete := err == nil && res.StopReason == core.StopNone
	if ferr := sess.Finish(complete); ferr != nil && err == nil {
		err = fmt.Errorf("spool: %w", ferr)
	}
	return res, sess, err
}
