package dist

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/graph"
)

func testGraph(t testing.TB, seed int64, nu, nv, m int) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSpec(t testing.TB, g *graph.Bipartite, algo, ordering string) Spec {
	t.Helper()
	s := Spec{Algorithm: algo, Ordering: ordering}.WithGraph(g)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeDigest builds an arbitrary non-empty digest for protocol-level
// tests that never run an engine.
func fakeDigest(fps ...uint64) difftest.Digest {
	var d difftest.Digest
	for _, fp := range fps {
		d.Add(fp)
	}
	return d
}

func TestSplitRootsTilesTheRootSpace(t *testing.T) {
	cases := []struct{ nv, n, want int }{
		{nv: 10, n: 3, want: 3},
		{nv: 100, n: 16, want: 16},
		{nv: 3, n: 10, want: 3}, // fewer ranges than requested
		{nv: 1, n: 1, want: 1},
		{nv: 0, n: 4, want: 0}, // empty V side
		{nv: 7, n: 0, want: 1}, // n < 1 clamps to 1
	}
	for _, c := range cases {
		rs := SplitRoots(c.nv, c.n)
		if len(rs) != c.want {
			t.Errorf("SplitRoots(%d, %d): %d ranges, want %d", c.nv, c.n, len(rs), c.want)
			continue
		}
		next := int32(0)
		for _, r := range rs {
			if r.Start != next || r.End <= r.Start {
				t.Errorf("SplitRoots(%d, %d): range [%d,%d) breaks the tiling at %d", c.nv, c.n, r.Start, r.End, next)
			}
			next = r.End
		}
		if next != int32(c.nv) {
			t.Errorf("SplitRoots(%d, %d): tiling ends at %d, want %d", c.nv, c.n, next, c.nv)
		}
	}
}

func TestDigestJSONRoundTrip(t *testing.T) {
	digests := []difftest.Digest{
		{},
		fakeDigest(1, 2, 3),
		{Count: 1 << 40, Sum: ^uint64(0), Xor: 1, Fold: 0x8000000000000000},
	}
	for _, d := range digests {
		got, err := FromJSON(ToJSON(d))
		if err != nil {
			t.Fatalf("round-trip %v: %v", d, err)
		}
		if !got.Equal(d) || got.Count != d.Count {
			t.Errorf("round-trip %v -> %v", d, got)
		}
	}
	for _, bad := range []DigestJSON{
		{Sum: "zz", Xor: "0", Fold: "0"},
		{Sum: "0", Xor: "", Fold: "0"},
		{Sum: "0", Xor: "0", Fold: "not hex"},
	} {
		if _, err := FromJSON(bad); err == nil {
			t.Errorf("FromJSON(%+v) accepted bad hex", bad)
		}
	}
}

func TestSpecValidateRejectsMisconfiguration(t *testing.T) {
	g := testGraph(t, 1, 8, 8, 24)
	good := Spec{Algorithm: "AdaMBE", Ordering: "asc"}.WithGraph(g)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	// Competitor engines do not share the root partition contract.
	for _, algo := range []string{"FMBE", "PMBE", "ooMBEA", "ParMBE", "GMBE", "nosuch"} {
		s := Spec{Algorithm: algo, Ordering: "asc"}.WithGraph(g)
		if err := s.Validate(); err == nil {
			t.Errorf("algorithm %q accepted; it cannot shard by root", algo)
		}
	}
	s := Spec{Algorithm: "AdaMBE", Ordering: "bogus"}.WithGraph(g)
	if err := s.Validate(); err == nil {
		t.Error("bogus ordering accepted")
	}
	if err := (Spec{Algorithm: "AdaMBE", Ordering: "asc"}).Validate(); err == nil {
		t.Error("spec without graph identity accepted")
	}
	// An empty ordering is refused, not read as a default.
	if err := (Spec{Algorithm: "AdaMBE"}.WithGraph(g)).Validate(); err == nil {
		t.Error("spec without an ordering accepted")
	}
	// Spellings are case-insensitive and canonicalize to the registry's
	// and the ordering table's.
	loose := Spec{Algorithm: "adambe", Ordering: "ASC"}.WithGraph(g)
	if c, err := loose.Canonical(); err != nil || c.Algorithm != "AdaMBE" || c.Ordering != "asc" {
		t.Errorf("Canonical(%s/%s) = %s/%s, %v; want AdaMBE/asc", loose.Algorithm, loose.Ordering, c.Algorithm, c.Ordering, err)
	}

	other := testGraph(t, 2, 8, 8, 24)
	if err := good.CheckGraph(other); err == nil {
		t.Error("CheckGraph accepted a different graph")
	}
	if err := good.CheckGraph(g); err != nil {
		t.Errorf("CheckGraph rejected the spec's own graph: %v", err)
	}
}

// TestAttemptFencing drives the coordinator's ledger directly through
// the whole fencing story: wrong-attempt frames, expiry, zombie frames
// after expiry, and a re-issued lease that resumes at the confirmed
// watermark and out-fences the zombie.
func TestAttemptFencing(t *testing.T) {
	g := testGraph(t, 3, 8, 8, 24)
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  t.TempDir(), Ranges: 1, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	lease, ok := c.grantLease("victim")
	if !ok || lease.Attempt != 1 || lease.Resume != 0 || lease.End != int32(g.NV()) {
		t.Fatalf("first grant: %+v ok=%v", lease, ok)
	}

	d1 := ToJSON(fakeDigest(11, 12))
	// A frame tagged with an attempt that was never granted.
	if err := c.acceptFrame(0, 2, "evil", Frame{Type: "wm", From: 0, To: 1, Delta: &d1}); err == nil {
		t.Fatal("future-attempt frame accepted")
	}
	// The live attempt's frame merges and advances the watermark.
	if err := c.acceptFrame(0, 1, "victim", Frame{Type: "wm", From: 0, To: 3, Delta: &d1}); err != nil {
		t.Fatal(err)
	}
	if wm, state, _ := c.RangeWatermark(0); wm != 3 || state != stateLeased {
		t.Fatalf("after wm frame: watermark %d state %s", wm, state)
	}

	// Contiguity violations: a gap, a regression, and an overshoot.
	for _, f := range []Frame{
		{Type: "wm", From: 4, To: 5, Delta: &d1},                 // gap
		{Type: "wm", From: 0, To: 3, Delta: &d1},                 // replay
		{Type: "wm", From: 3, To: int32(g.NV()) + 1, Delta: &d1}, // past end
		{Type: "wm", From: 3, To: 3, Delta: &d1},                 // empty
		{Type: "wm", From: 3, To: 4},                             // no delta
		{Type: "done", From: 3, To: 4, Delta: &d1, Total: &d1},   // done before end
		{Type: "done", From: 3, To: int32(g.NV()), Delta: &d1},   // done without total
		{Type: "bogus"}, // unknown type
	} {
		if err := c.acceptFrame(0, 1, "victim", f); err == nil {
			t.Errorf("malformed frame %+v accepted", f)
		}
	}
	if wm, _, _ := c.RangeWatermark(0); wm != 3 {
		t.Fatalf("rejected frames moved the watermark to %d", wm)
	}

	// Expire the lease through the janitor's path (time seam).
	c.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	c.expireLeases()
	if wm, state, _ := c.RangeWatermark(0); state != statePending || wm != 3 {
		t.Fatalf("after expiry: state %s watermark %d", state, wm)
	}
	if v := c.leasesExpired.Value(); v != 1 {
		t.Errorf("dist_leases_expired_total = %d, want 1", v)
	}
	// The zombie's attempt is fenced even before a re-grant.
	if err := c.acceptFrame(0, 1, "victim", Frame{Type: "wm", From: 3, To: 4, Delta: &d1}); err == nil {
		t.Fatal("zombie frame accepted after expiry")
	}

	// The re-issue resumes at the confirmed watermark with a fresh
	// fencing token.
	lease2, ok := c.grantLease("healer")
	if !ok || lease2.Attempt != 2 || lease2.Resume != 3 || lease2.Start != 0 {
		t.Fatalf("re-grant: %+v ok=%v", lease2, ok)
	}
	if v := c.leasesReissued.Value(); v != 1 {
		t.Errorf("dist_leases_reissued_total = %d, want 1", v)
	}
	if err := c.acceptFrame(0, 1, "victim", Frame{Type: "wm", From: 3, To: 4, Delta: &d1}); err == nil {
		t.Fatal("zombie frame accepted after re-grant")
	}

	// The healer finishes: done's Total must cross-check against the
	// attempt's own deltas, not the range's lifetime digest.
	d2 := ToJSON(fakeDigest(21))
	if err := c.acceptFrame(0, 2, "healer", Frame{Type: "wm", From: 3, To: 5, Delta: &d2}); err != nil {
		t.Fatal(err)
	}
	d3 := ToJSON(fakeDigest(31))
	badTotal := ToJSON(fakeDigest(99))
	done := Frame{Type: "done", From: 5, To: int32(g.NV()), Delta: &d3, Total: &badTotal}
	if err := c.acceptFrame(0, 2, "healer", done); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("done with wrong total: err=%v, want digest mismatch", err)
	}
	attemptTotal := fakeDigest(21)
	attemptTotal.Merge(fakeDigest(31))
	tj := ToJSON(attemptTotal)
	done.Total = &tj
	if err := c.acceptFrame(0, 2, "healer", done); err != nil {
		t.Fatal(err)
	}

	want := fakeDigest(11, 12)
	want.Merge(fakeDigest(21))
	want.Merge(fakeDigest(31))
	got, complete := c.GlobalDigest()
	if !complete || !got.Equal(want) {
		t.Fatalf("global digest %v complete=%v, want %v complete", got, complete, want)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed after the last range finished")
	}
	if v := c.framesRejected.Value(); v < 10 {
		t.Errorf("dist_frames_rejected_total = %d, want every rejection counted", v)
	}
}

// TestManifestRecovery simulates kill -9 by simply abandoning a live
// coordinator and constructing a fresh one over the same directory: the
// ranges must come back with their watermarks, digests and attempt
// counters, leased reverted to pending.
func TestManifestRecovery(t *testing.T) {
	g := testGraph(t, 5, 10, 12, 40)
	dir := t.TempDir()
	spec := testSpec(t, g, "AdaMBE", "asc")

	c1, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, Ranges: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	lease, ok := c1.grantLease("w0")
	if !ok {
		t.Fatal("no lease")
	}
	d1 := fakeDigest(7, 8, 9)
	dj := ToJSON(d1)
	if err := c1.acceptFrame(lease.RangeID, lease.Attempt, "w0",
		Frame{Type: "wm", From: lease.Resume, To: lease.Resume + 3, Delta: &dj}); err != nil {
		t.Fatal(err)
	}
	// kill -9: no Stop, no further writes; the manifest on disk is all
	// that survives.

	c2, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if n := len(c2.ranges); n != 2 {
		t.Fatalf("recovered %d ranges, want the persisted 2 (CoordOptions.Ranges must be ignored)", n)
	}
	r0 := c2.ranges[lease.RangeID]
	if r0.state != statePending || r0.attempt != 1 || r0.watermark != lease.Resume+3 || !r0.digest.Equal(d1) {
		t.Fatalf("recovered range: state=%s attempt=%d watermark=%d digest=%v", r0.state, r0.attempt, r0.watermark, r0.digest)
	}
	// A re-grant after recovery continues the attempt sequence — the
	// fencing token can never alias a pre-crash zombie's.
	lease2, ok := c2.grantLease("w1")
	if !ok || lease2.Attempt != 2 || lease2.Resume != lease.Resume+3 {
		t.Fatalf("post-recovery grant: %+v ok=%v", lease2, ok)
	}

	// The same run spelled differently recovers the manifest: specs are
	// canonicalized before they are persisted and compared.
	c3, err := NewCoordinator(CoordOptions{Spec: testSpec(t, g, "adambe", "ASC"), Dir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("recovery under another spelling of the same spec: %v", err)
	}
	if c3.spec.Algorithm != "AdaMBE" || c3.spec.Ordering != "asc" {
		t.Errorf("recovered spec %s/%s, want the canonical AdaMBE/asc", c3.spec.Algorithm, c3.spec.Ordering)
	}
	m, _, err := loadManifest(dir)
	if err != nil || m.Spec.Algorithm != "AdaMBE" || m.Spec.Ordering != "asc" {
		t.Errorf("persisted spec %s/%s (err %v), want the canonical AdaMBE/asc", m.Spec.Algorithm, m.Spec.Ordering, err)
	}
	// A manifest written before specs were canonicalized may hold any
	// accepted spelling; it recovers under the canonical one.
	m.Spec.Algorithm, m.Spec.Ordering = "adambe", "ASC"
	if err := writeManifest(dir, m, false); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, LeaseTTL: time.Minute}); err != nil {
		t.Fatalf("recovery of a manifest with a non-canonical spelling: %v", err)
	}

	// A mismatched spec must refuse the directory outright, and so must
	// a spec without an ordering.
	for _, bad := range []Spec{
		testSpec(t, g, "BBK", "asc"),
		testSpec(t, g, "AdaMBE", "rand"),
		testSpec(t, testGraph(t, 6, 10, 12, 40), "AdaMBE", "asc"),
		Spec{Algorithm: "AdaMBE"}.WithGraph(g),
	} {
		if _, err := NewCoordinator(CoordOptions{Spec: bad, Dir: dir}); err == nil {
			t.Errorf("incompatible spec %+v accepted over an existing manifest", bad)
		}
	}
}

// TestManifestRecoveryComplete: a finished run's manifest recovers
// directly into the complete state with the same global digest.
func TestManifestRecoveryComplete(t *testing.T) {
	g := testGraph(t, 9, 8, 6, 20)
	dir := t.TempDir()
	spec := testSpec(t, g, "BBK", "none")

	c1, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, Ranges: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		lease, ok := c1.grantLease("w")
		if !ok {
			break
		}
		d := fakeDigest(uint64(lease.RangeID)*100 + 1)
		dj := ToJSON(d)
		if err := c1.acceptFrame(lease.RangeID, lease.Attempt, "w",
			Frame{Type: "done", From: lease.Resume, To: lease.End, Delta: &dj, Total: &dj}); err != nil {
			t.Fatal(err)
		}
	}
	want, complete := c1.GlobalDigest()
	if !complete {
		t.Fatal("run not complete after every range was sealed")
	}

	c2, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, complete := c2.GlobalDigest()
	if !complete || !got.Equal(want) {
		t.Fatalf("recovered complete run: digest %v complete=%v, want %v", got, complete, want)
	}
	select {
	case <-c2.Done():
	default:
		t.Error("recovered complete run: Done not closed")
	}
	// A complete run grants nothing and tells workers to exit.
	if _, ok := c2.grantLease("w"); ok {
		t.Error("complete run granted a lease")
	}
}

// TestEmptyDoneFrameSealsFullyStreamedRange: when the frontier reaches
// the range end before enumeration returns, the flusher streams the
// final interval as a wm frame and the done frame arrives empty
// (From == To == end). It must still seal the range — rejecting it
// would strand the range at watermark == end forever (the re-issued
// lease would have nothing to enumerate).
func TestEmptyDoneFrameSealsFullyStreamedRange(t *testing.T) {
	g := testGraph(t, 5, 8, 8, 24)
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  t.TempDir(), Ranges: 1, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.grantLease("w"); !ok {
		t.Fatal("no lease granted")
	}
	end := int32(g.NV())
	d := ToJSON(fakeDigest(41, 42))
	if err := c.acceptFrame(0, 1, "w", Frame{Type: "wm", From: 0, To: end, Delta: &d}); err != nil {
		t.Fatal(err)
	}

	empty := ToJSON(difftest.Digest{})
	// The cross-check still guards the empty tail: a total that does not
	// reproduce the attempt's streamed deltas is rejected.
	bad := ToJSON(fakeDigest(99))
	if err := c.acceptFrame(0, 1, "w", Frame{Type: "done", From: end, To: end, Delta: &empty, Total: &bad}); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("empty done with wrong total: err=%v, want digest mismatch", err)
	}
	// An empty wm frame is still a protocol violation.
	if err := c.acceptFrame(0, 1, "w", Frame{Type: "wm", From: end, To: end, Delta: &empty}); err == nil {
		t.Fatal("empty wm frame accepted")
	}

	if err := c.acceptFrame(0, 1, "w", Frame{Type: "done", From: end, To: end, Delta: &empty, Total: &d}); err != nil {
		t.Fatalf("empty done frame rejected: %v", err)
	}
	if wm, state, _ := c.RangeWatermark(0); state != stateDone || wm != end {
		t.Fatalf("after empty done: state %s watermark %d", state, wm)
	}
	got, complete := c.GlobalDigest()
	if !complete || !got.Equal(fakeDigest(41, 42)) {
		t.Fatalf("global digest %v complete=%v after empty-done seal", got, complete)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed after empty-done seal")
	}
}
