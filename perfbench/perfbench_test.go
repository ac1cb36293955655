package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/spool"
)

// tinyConfig runs a workload on small inputs for a fraction of a second.
func tinyConfig(t *testing.T, trace bool) config {
	return config{
		seed:    7,
		seconds: 0.3,
		trace:   trace,
		threads: min(runtime.NumCPU(), 8),
		dir:     t.TempDir(),
		setups:  1,
		tiny:    true,
	}
}

// TestEveryMetricPresent runs each workload untraced and traced and
// checks that the result line holds exactly the metrics of its list,
// each with its unit, and that nothing failed.
func TestEveryMetricPresent(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := assemble(w, cfg, rep)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d: %v", w.name, trace, res.Correct, res.Failed, rep.errs)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}

			var out bytes.Buffer
			printReport(&out, w, cfg, rep, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line keys %v, want correct, attempted, failed and metrics", w.name, keys(last))
			}
		}
	}
}

// TestInjectedMismatchFails spoils one reference digest in each workload
// and checks that the run counts the mismatch and is not correct.
func TestInjectedMismatchFails(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, false)
		cfg.corrupt = true
		rep, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res := assemble(w, cfg, rep)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d after a spoiled reference", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if !strings.Contains(strings.Join(rep.errs, "\n"), "digest") {
			t.Errorf("%s: errors %q name no digest mismatch", w.name, rep.errs)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload lists here in step. BENCHMARK.json may leave a workload out.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload here", w.Name)
		}
	}
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit, Better string }
		here []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.here) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, want %d", c.what, len(c.file), len(c.here))
		}
		for i, m := range c.file {
			if h := c.here[i]; m.Name != h.Name || m.Unit != h.Unit || m.Better != h.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, here %+v", c.what, i, m, h)
			}
		}
	}
}

// TestGHConfigMatchesRegistry checks that the dense workloads build the
// registry's GH graph.
func TestGHConfigMatchesRegistry(t *testing.T) {
	spec, ok := datasets.ByName("GH")
	if !ok {
		t.Fatal("no GH dataset")
	}
	want := spool.GraphSignature(spec.Build())
	if got := spool.GraphSignature(gen.Affiliation(ghSeed, ghConfig).Orient()); got != want {
		t.Errorf("ghConfig builds %s, registry GH is %s", got, want)
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n     int
		label string
	}{{5, "max"}, {91, "max"}, {92, "p90"}, {181, "p90"}, {182, "p95"}, {901, "p95"}, {902, "p99"}} {
		if _, label := tailQuantile(xs[:c.n]); label != c.label {
			t.Errorf("%d samples: %s, want %s", c.n, label, c.label)
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
