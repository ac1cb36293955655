package engine

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/gen"
	"repro/internal/order"
)

// TestRegistry pins the registry's shape: every engine has one row
// whose spellings parse back to it in any case, exactly the AdaMBE
// family and BBK honour the root-partition contract, and every row is
// run by exactly one engine package.
func TestRegistry(t *testing.T) {
	if len(All()) != 11 {
		t.Fatalf("registry has %d rows, want 11", len(All()))
	}
	seen := map[ID]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("%s: duplicate ID %d", e, e.ID)
		}
		seen[e.ID] = true
		for _, name := range []string{e.Name, e.String(), strings.ToUpper(e.Name), strings.ToLower(e.String())} {
			got, err := Parse(name)
			if err != nil || got.ID != e.ID {
				t.Fatalf("Parse(%q) = %v, %v; want %s", name, got.ID, err, e)
			}
		}
		if got, ok := e.ID.Engine(); !ok || got != e {
			t.Fatalf("%s: ID lookup = %+v, %v", e, got, ok)
		}
		if e.Core() && e.Alg != "" || !e.Core() && e.Variant != 0 {
			t.Fatalf("%s: both a core variant and a baselines engine", e)
		}
	}
	if got, want := strings.Join(Names(Partition), "|"), "AdaMBE|ParAdaMBE|Baseline|AdaMBE-LN|AdaMBE-BIT|BBK"; got != want {
		t.Fatalf("partition engines %s, want %s", got, want)
	}
	if _, err := Parse("nosuch"); err == nil || !strings.Contains(err.Error(), strings.Join(Names(nil), "|")) {
		t.Fatalf("bogus name: err = %v, want the menu", err)
	}
	if ID(99).String() != "Algorithm(99)" {
		t.Fatalf("unknown ID named %q", ID(99).String())
	}
	for _, c := range []struct {
		id            ID
		threads, want int
	}{{ParAdaMBE, 4, 4}, {ParAdaMBE, 0, 1}, {AdaMBE, 4, 1}, {ParMBE, 3, 3}, {BBK, 8, 1}} {
		e, _ := c.id.Engine()
		if got := e.Width(c.threads); got != c.want {
			t.Errorf("%s.Width(%d) = %d, want %d", e, c.threads, got, c.want)
		}
	}
}

// TestOrderingTable: every spelling round-trips in any case, the empty
// string and unknown names are refused, and every ordering kind has a
// paper name.
func TestOrderingTable(t *testing.T) {
	for _, name := range OrderingNames {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			k, err := ParseOrdering(spelling)
			if err != nil {
				t.Fatalf("ParseOrdering(%q): %v", spelling, err)
			}
			if back, ok := OrderingName(k); !ok || back != name {
				t.Fatalf("OrderingName(%v) = %q, %v; want %q", k, back, ok, name)
			}
			if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
				t.Fatalf("%q: kind %d has no paper name", name, int(k))
			}
		}
	}
	for _, bad := range []string{"", "bogus", "increasing"} {
		if _, err := ParseOrdering(bad); err == nil {
			t.Errorf("ParseOrdering(%q) accepted", bad)
		}
	}
	if order.Kind(42).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
	if _, err := Resolve(gen.Uniform(1, 5, 5, 10), order.Kind(42), 0); err == nil {
		t.Fatal("Resolve accepted an unknown ordering")
	}
}

// TestRunMapsBackUnderEveryOrdering: whichever ordering a plan applies,
// Run reports ids in the source id space, for serialized and concurrent
// delivery alike, so every run digests equal to the identity plan's.
func TestRunMapsBackUnderEveryOrdering(t *testing.T) {
	g := gen.PowerLaw(3, 30, 16, 110, 1.6, 1.9)
	var want digest.Digest
	core.BruteForce(g, want.Observe)
	for _, name := range OrderingNames {
		k, _ := ParseOrdering(name)
		plan, err := Resolve(g, k, 9)
		if err != nil {
			t.Fatal(err)
		}
		if (plan.Perm == nil) != (k == order.None) {
			t.Fatalf("%s: perm %v", name, plan.Perm)
		}
		for _, id := range []ID{AdaMBE, BBK, FMBE} {
			var d digest.Digest
			if _, err := Run(plan, id, core.Options{OnBiclique: d.Observe}); err != nil || !d.Equal(want) {
				t.Fatalf("%s/%s: digest %v (err %v), want %v", name, id, d, err, want)
			}
		}
		var mu sync.Mutex
		var d digest.Digest
		if _, err := Run(plan, ParAdaMBE, core.Options{Threads: 4, UnorderedEmit: true, OnBiclique: func(L, R []int32) {
			mu.Lock()
			d.Observe(L, R)
			mu.Unlock()
		}}); err != nil || !d.Equal(want) {
			t.Fatalf("%s/ParAdaMBE unordered: digest %v (err %v), want %v", name, d, err, want)
		}
	}
}

// TestRootPartitionRefusedByCompetitors: root ranges and the spool are
// refused, before any spool is created, for every engine that does not
// honour the root-partition contract.
func TestRootPartitionRefusedByCompetitors(t *testing.T) {
	plan, err := Resolve(gen.Uniform(2, 10, 10, 30), order.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		_, err := Run(plan, e.ID, core.Options{EndRoot: 5})
		if e.Partition != (err == nil) {
			t.Errorf("%s: root range err = %v", e, err)
		}
		if e.Partition {
			continue
		}
		if !strings.Contains(err.Error(), "only supported") {
			t.Errorf("%s: err %q does not say what is supported", e, err)
		}
		dir := t.TempDir() + "/spool"
		if _, _, err := RunSpooled(plan, e.ID, core.Options{}, Spool{Dir: dir}); err == nil {
			t.Errorf("%s: spooled run accepted", e)
		}
	}
	if _, err := Run(plan, ID(99), core.Options{}); err == nil {
		t.Error("unknown engine ran")
	}
}
