package difftest

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/spool"
)

// Spooled-run differential harness: enumerate through the durable spool
// path (internal/spool + internal/ckpt), interrupting and resuming at
// chosen points, and digest what the spool holds at the end. The
// invariant under test is the tentpole guarantee — an interrupted +
// resumed spool is byte-equivalent (as a biclique multiset) to an
// uninterrupted enumeration, with zero dropped and zero duplicated
// bicliques — checked with the same canonical digests the rest of the
// differential harness uses.

// SpoolRunResult reports one RunSpooled lifecycle.
type SpoolRunResult struct {
	Digest   Digest
	Attempts int   // enumeration attempts (interrupts + the final complete run)
	Records  int64 // records in the final spool
}

// RunSpooled enumerates g under c through a spool at dir, interrupting
// the run (context cancellation, exactly how Ctrl-C lands) after each
// emission count in interrupts, resuming after each, then letting the
// final attempt run to completion. The digest of the final spool
// contents is returned. Every root-partition engine is supported; the
// others are refused.
func RunSpooled(g *graph.Bipartite, c Config, dir string, interrupts []int64) (SpoolRunResult, error) {
	var out SpoolRunResult
	for _, after := range interrupts {
		complete, err := runSpooledOnce(g, c, dir, out.Attempts > 0, after)
		out.Attempts++
		if err != nil {
			return out, err
		}
		if complete {
			// The run beat the interrupt point; nothing left to resume.
			break
		}
	}
	// Final attempt(s): run to completion. One resume normally suffices;
	// the loop guards against a pathological non-advancing sequence.
	for i := 0; i < 3; i++ {
		complete, err := runSpooledOnce(g, c, dir, out.Attempts > 0, 0)
		out.Attempts++
		if err != nil {
			return out, err
		}
		if complete {
			d, err := spool.ReplayDigest(dir)
			out.Digest, out.Records = d, d.Count
			return out, err
		}
	}
	return out, fmt.Errorf("difftest: %s: spooled run did not complete after %d attempts", c, out.Attempts)
}

// cancelSink counts emissions and cancels the run's context once the
// budget is spent — a deterministic-enough stand-in for an interrupt
// that always lands mid-enumeration.
type cancelSink struct {
	inner     core.Sink
	remaining atomic.Int64
	cancel    context.CancelFunc
}

func (s *cancelSink) Emit(worker int, root int32, L, R []int32) {
	s.inner.Emit(worker, root, L, R)
	if s.remaining.Add(-1) == 0 {
		s.cancel()
	}
}

// runSpooledOnce is one attempt through the shared spooled-run path
// (engine.RunSpooled): open (or resume) the session, enumerate —
// cancelling after cancelAfter emissions when > 0 — and close the
// session with the outcome. Returns whether enumeration ran to
// completion.
func runSpooledOnce(g *graph.Bipartite, c Config, dir string, resume bool, cancelAfter int64) (bool, error) {
	plan, err := engine.Resolve(g, c.Order, c.Seed)
	if err != nil {
		return false, fmt.Errorf("difftest: %s: %w", c, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := engine.Spool{
		Dir:    dir,
		Tool:   "difftest",
		Resume: resume,
		Every:  -1, // checkpoints only at Finish: deterministic resume points
	}
	if cancelAfter > 0 {
		sp.Wrap = func(inner core.Sink) core.Sink {
			cs := &cancelSink{inner: inner, cancel: cancel}
			cs.remaining.Store(cancelAfter)
			return cs
		}
	}
	res, _, err := engine.RunSpooled(plan, c.Engine, core.Options{Tau: c.Tau, Threads: c.Threads, Context: ctx}, sp)
	if err != nil {
		return false, fmt.Errorf("difftest: %s: %w", c, err)
	}
	return res.StopReason == core.StopNone, nil
}
