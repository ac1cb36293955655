package difftest

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// resumeGraphs builds the 20-graph corpus for the resume matrix: a
// spread of uniform and power-law shapes small enough that the full
// matrix (graphs × interrupt points × thread counts) stays inside the
// CI budget but big enough that interrupts land mid-enumeration.
func resumeGraphs() []*graph.Bipartite {
	var gs []*graph.Bipartite
	for seed := int64(0); seed < 12; seed++ {
		gs = append(gs, gen.Uniform(seed, 40+int(seed)*2, 20+int(seed), 150+10*int(seed)))
	}
	for seed := int64(0); seed < 8; seed++ {
		gs = append(gs, gen.PowerLaw(100+seed, 50, 25, 200, 1.5, 1.8))
	}
	return gs
}

// TestResumeEquality is the tentpole acceptance matrix: for every graph
// × interrupt point × thread count, an interrupted-then-resumed spooled
// run must produce a spool whose digest equals an uninterrupted
// enumeration of the same graph — zero dropped, zero duplicated
// bicliques, proven by multiset fingerprint rather than count.
func TestResumeEquality(t *testing.T) {
	graphs := resumeGraphs()
	if len(graphs) != 20 {
		t.Fatalf("corpus has %d graphs, want 20", len(graphs))
	}
	interrupts := []int64{1, 40, 400} // first emission, early, mid-run
	threadCounts := []int{1, 4, 8}

	for gi, g := range graphs {
		// One oracle digest per graph: the ordinary in-memory serial run.
		oracle, err := Run(g, Config{Engine: EngAda, Order: order.DegreeAscending, Threads: 1})
		if err != nil {
			t.Fatalf("graph %d: oracle: %v", gi, err)
		}
		for _, after := range interrupts {
			for _, threads := range threadCounts {
				name := fmt.Sprintf("g%02d/interrupt=%d/threads=%d", gi, after, threads)
				t.Run(name, func(t *testing.T) {
					c := Config{Engine: EngAda, Order: order.DegreeAscending, Threads: 1}
					if threads > 1 {
						c = Config{Engine: EngParAda, Order: order.DegreeAscending, Threads: threads}
					}
					res, err := RunSpooled(g, c, t.TempDir(), []int64{after})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Digest.Equal(oracle) {
						t.Errorf("[%s] resumed spool digest %s != oracle %s (attempts=%d)",
							c, res.Digest, oracle, res.Attempts)
					}
					if res.Records != oracle.Count {
						t.Errorf("[%s] spool holds %d records, oracle enumerated %d",
							c, res.Records, oracle.Count)
					}
				})
			}
		}
	}
}

// TestResumeActuallyResumes pins that the matrix above is not passing
// vacuously: with an interrupt after the very first emission, the run
// cannot complete in one attempt, so a resume must have happened.
func TestResumeActuallyResumes(t *testing.T) {
	g := gen.Uniform(7, 60, 30, 240)
	res, err := RunSpooled(g, Config{Engine: EngAda, Order: order.DegreeAscending, Threads: 1},
		t.TempDir(), []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 {
		t.Fatalf("interrupt-at-first-emission completed in %d attempt(s): the resume path was never exercised", res.Attempts)
	}
}

// TestSpooledUninterruptedMatchesRun: the spool replay digest of a run
// that was never interrupted equals the in-memory digest — the durable
// path loses and invents nothing even without the resume machinery,
// across orderings (the spool stores original-graph ids, mapped back
// through the run's permutation exactly like the in-memory handler).
func TestSpooledUninterruptedMatchesRun(t *testing.T) {
	g := gen.PowerLaw(42, 60, 30, 250, 1.6, 1.9)
	oracle, err := Run(g, Config{Engine: EngAda, Order: order.DegreeAscending, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{Engine: EngAda, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngAda, Order: order.Random, Seed: 5, Threads: 1},
		{Engine: EngParAda, Order: order.UnilateralCore, Threads: 4},
		{Engine: EngBIT, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngLN, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngBaseline, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngBBK, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngBBK, Order: order.Random, Seed: 5, Threads: 1},
	} {
		want, err := Run(g, c)
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !want.Equal(oracle) {
			t.Errorf("[%s] in-memory digest %s != oracle %s", c, want, oracle)
		}
		res, err := RunSpooled(g, c, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !res.Digest.Equal(want) {
			t.Errorf("[%s] spool digest %s != in-memory digest %s", c, res.Digest, want)
		}
		if res.Attempts != 1 {
			t.Errorf("[%s] uninterrupted run took %d attempts", c, res.Attempts)
		}
	}
	// The paper competitors do not honour the root-partition contract:
	// the spooled path refuses them.
	if _, err := RunSpooled(g, Config{Engine: EngFMBE, Order: order.DegreeAscending}, t.TempDir(), nil); err == nil {
		t.Error("spooled FMBE run accepted")
	}
}

// TestResumeDenseSubtrees interrupts runs on a graph dense enough that
// the amortized stop check (tle.CheckEvery node visits per poll) trips
// mid-subtree rather than at a root boundary. Regression for the bug
// where a root whose subtree was cut short by a stop was still reported
// inline-done, lifting the watermark past partially-emitted output.
func TestResumeDenseSubtrees(t *testing.T) {
	g := gen.Uniform(11, 200, 100, 2400)
	oracle, err := Run(g, Config{Engine: EngAda, Order: order.DegreeAscending, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{Engine: EngAda, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngParAda, Order: order.DegreeAscending, Threads: 4},
	} {
		res, err := RunSpooled(g, c, t.TempDir(), []int64{oracle.Count / 3})
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !res.Digest.Equal(oracle) {
			t.Errorf("[%s] resumed digest %s != oracle %s (attempts=%d)", c, res.Digest, oracle, res.Attempts)
		}
		if res.Records != oracle.Count {
			t.Errorf("[%s] spool holds %d records, oracle enumerated %d", c, res.Records, oracle.Count)
		}
	}
}

// TestResumeRepeatedInterrupts chains several interrupts on one spool —
// the "flaky node" scenario — and still requires exact equality.
func TestResumeRepeatedInterrupts(t *testing.T) {
	g := gen.Uniform(3, 70, 35, 300)
	oracle, err := Run(g, Config{Engine: EngAda, Order: order.DegreeAscending, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{Engine: EngAda, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngParAda, Order: order.DegreeAscending, Threads: 8},
		{Engine: EngBBK, Order: order.DegreeAscending, Threads: 1},
		{Engine: EngBaseline, Order: order.DegreeAscending, Threads: 1},
	} {
		res, err := RunSpooled(g, c, t.TempDir(), []int64{1, 3, 10, 50, 100})
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !res.Digest.Equal(oracle) {
			t.Errorf("[%s] after %d attempts: digest %s != oracle %s", c, res.Attempts, res.Digest, oracle)
		}
	}
}
