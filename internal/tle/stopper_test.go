package tle

import (
	"context"
	"testing"
	"time"
)

func TestStopperZeroConfigNeverStops(t *testing.T) {
	s := NewStopper(nil, Config{})
	for i := 0; i < 3*CheckEvery; i++ {
		if s.Hit() {
			t.Fatalf("unarmed stopper stopped at hit %d", i)
		}
	}
	if s.Stopped() || s.Reason() != None {
		t.Fatalf("unarmed stopper: Stopped=%v Reason=%v", s.Stopped(), s.Reason())
	}
}

func TestStopperPreExpiredDeadlineStopsOnFirstHit(t *testing.T) {
	s := NewStopper(nil, Config{Deadline: time.Now().Add(-time.Hour)})
	if !s.Hit() {
		t.Fatal("first Hit did not observe the expired deadline")
	}
	if s.Reason() != DeadlineExceeded {
		t.Fatalf("Reason = %v, want DeadlineExceeded", s.Reason())
	}
	if !s.Hit() || !s.Stopped() {
		t.Fatal("stop must be sticky")
	}
}

func TestStopperPreCanceledContextStopsOnFirstHit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shared := &Shared{}
	s := NewStopper(shared, Config{Context: ctx})
	if !s.Hit() {
		t.Fatal("first Hit did not observe the canceled context")
	}
	if s.Reason() != Canceled {
		t.Fatalf("Reason = %v, want Canceled", s.Reason())
	}
	if shared.Reason() != Canceled {
		t.Fatalf("shared.Reason = %v, want Canceled (fail must publish)", shared.Reason())
	}
}

func TestStopperContextCancelObservedWithinOneQuantum(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(nil, Config{Context: ctx})
	if s.Hit() { // first poll: context live
		t.Fatal("stopped before cancel")
	}
	cancel()
	stopped := false
	for i := 0; i < CheckEvery; i++ {
		if s.Hit() {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Fatal("cancel not observed within CheckEvery hits")
	}
	if s.Reason() != Canceled {
		t.Fatalf("Reason = %v, want Canceled", s.Reason())
	}
}

func TestStopperMemoryBudget(t *testing.T) {
	shared := &Shared{}
	s := NewStopper(shared, Config{MaxMemoryBytes: 1000})
	if s.Hit() {
		t.Fatal("stopped under budget")
	}
	s.AddMem(500)
	if s.Hit() {
		t.Fatal("stopped at 500 of 1000 bytes")
	}
	// AddMem beyond the budget forces the next Hit to poll immediately.
	s.AddMem(501)
	if !s.Hit() {
		t.Fatal("Hit after blowing the budget did not stop")
	}
	if s.Reason() != MemoryExceeded {
		t.Fatalf("Reason = %v, want MemoryExceeded", s.Reason())
	}
	if shared.MemBytes() != 1001 {
		t.Fatalf("MemBytes = %d, want 1001", shared.MemBytes())
	}
}

func TestSharedTripFirstReasonWins(t *testing.T) {
	var sh Shared
	sh.Trip(None) // no-op
	if sh.Reason() != None {
		t.Fatal("Trip(None) published a reason")
	}
	sh.Trip(DeadlineExceeded)
	sh.Trip(Aborted)
	if sh.Reason() != DeadlineExceeded {
		t.Fatalf("Reason = %v, want first-wins DeadlineExceeded", sh.Reason())
	}
}

func TestStopperObservesSiblingTrip(t *testing.T) {
	shared := &Shared{}
	a := NewStopper(shared, Config{})
	b := NewStopper(shared, Config{})
	a.Fail(Aborted) // e.g. a's task panicked
	if !b.Hit() {
		t.Fatal("sibling stopper did not observe the trip on first Hit")
	}
	if b.Reason() != Aborted {
		t.Fatalf("sibling Reason = %v, want Aborted", b.Reason())
	}
}

func TestStopperFailIsSticky(t *testing.T) {
	s := NewStopper(nil, Config{})
	s.Fail(MemoryExceeded)
	if !s.Stopped() || !s.Hit() || s.Reason() != MemoryExceeded {
		t.Fatalf("Fail not sticky: Stopped=%v Reason=%v", s.Stopped(), s.Reason())
	}
}

func TestPollBypassesAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(nil, Config{Context: ctx})
	if s.Hit() { // consumes the initial immediate poll
		t.Fatal("stopped before cancel")
	}
	cancel()
	// A plain Hit here would wait out the quantum; Poll must not.
	if !s.Poll() {
		t.Fatal("Poll did not observe the canceled context")
	}
	if s.Reason() != Canceled {
		t.Fatalf("Reason = %v, want Canceled", s.Reason())
	}
	if !s.Poll() {
		t.Fatal("Poll must stay stopped")
	}
	unarmed := NewStopper(nil, Config{})
	if unarmed.Poll() {
		t.Fatal("unarmed Poll stopped")
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		None: "none", DeadlineExceeded: "deadline", Canceled: "canceled",
		MemoryExceeded: "memory-budget", Aborted: "aborted", Reason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

// TestStopperSite pins the fault-site contract: a nil hook does nothing,
// a hook error fails the worker with MemoryExceeded, and a site under a
// hook polls at once, observing a cancellation the amortized Hit would
// only see up to CheckEvery hits later.
func TestStopperSite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(&Shared{}, Config{Context: ctx})
	if s.Hit() { // first poll: context live; the next is CheckEvery hits away
		t.Fatal("stopped before cancel")
	}
	cancel()
	s.Site(nil, "site")
	if s.Stopped() {
		t.Fatal("a nil hook polled")
	}
	visits := 0
	s.Site(func(string) error { visits++; return nil }, "site")
	if visits != 1 || s.Reason() != Canceled {
		t.Fatalf("after a site under a hook: %d visits, Reason = %v, want 1, Canceled", visits, s.Reason())
	}

	shared := &Shared{}
	s = NewStopper(shared, Config{})
	s.Site(func(string) error { return context.DeadlineExceeded }, "site")
	if s.Reason() != MemoryExceeded || shared.Reason() != MemoryExceeded {
		t.Fatalf("hook error: Reason = %v, shared %v, want MemoryExceeded", s.Reason(), shared.Reason())
	}
}
