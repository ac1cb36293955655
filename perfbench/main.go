// Command perfbench is the repository's benchmark. It runs one workload
// (lib-dense, svc-small or dist-dense) from a seed, checks every output
// digest, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics, as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a run prints with --trace 0. Every run must
// print each of them, so they are named by role and every workload fills
// them from its own operations: p50_ms and p90_ms time the workload's
// main operation, alt_p50_ms its second one. README.md maps them to the
// names each workload prints, such as enum_s or job_p50_ms.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"alt_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a run prints with --trace 1.
var perLayer = []metricDef{
	{"gen.build_s", "s", "lower"},
	{"graph.parse_ms", "ms", "lower"},
	{"order.permute_s", "s", "lower"},
	{"core.nodes", "count", "lower"},
	{"core.nonmax_frac", "frac", "lower"},
	{"core.pruned", "count", "higher"},
	{"core.set_intersections", "count", "lower"},
	{"core.bitmaps", "count", "lower"},
	{"core.bit_promotion_frac", "frac", "higher"},
	{"core.small_s", "s", "lower"},
	{"core.large_s", "s", "lower"},
	{"core.allocs_per_biclique", "count", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"sched.tasks_spawned", "count", "lower"},
	{"sched.steal_frac", "frac", "lower"},
	{"sched.inline_frac", "frac", "higher"},
	{"sched.max_queue_depth", "count", "lower"},
	{"sched.arena_hit_frac", "frac", "higher"},
	{"sched.efficiency", "frac", "higher"},
	{"emit.digest_overhead_pct", "%", "lower"},
	{"obs.metrics_overhead_pct", "%", "lower"},
	{"obs.recorder_overhead_pct", "%", "lower"},
	{"spool.write_s", "s", "lower"},
	{"spool.sync_s", "s", "lower"},
	{"spool.bytes_per_biclique", "B", "lower"},
	{"spool.replay_s", "s", "lower"},
	{"spool.overhead_pct", "%", "lower"},
	{"server.upload_ms", "ms", "lower"},
	{"server.submit_ms", "ms", "lower"},
	{"server.stream_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"server.done_lag_ms", "ms", "lower"},
	{"server.polls_per_job", "count", "lower"},
	{"server.cache_hit_frac", "frac", "higher"},
	{"server.shed_frac", "frac", "lower"},
	{"server.retries_per_job", "count", "lower"},
	{"dist.bootstrap_s", "s", "lower"},
	{"dist.range_p50_s", "s", "lower"},
	{"dist.range_max_s", "s", "lower"},
	{"dist.tail_s", "s", "lower"},
	{"dist.worker_busy_frac", "frac", "higher"},
	{"dist.wm_frames", "count", "lower"},
	{"dist.leases_reissued", "count", "lower"},
	{"dist.frames_rejected", "count", "lower"},
	{"dist.overhead_pct", "%", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// hardLimit ends a run that has not finished, so that it exits well
// within the 180 s a run may take.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "lib-dense, svc-small or dist-dense")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload lib-dense|svc-small|dist-dense, --trace 0|1, --seconds > 0\n")
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceFlag == 1,
		threads: min(runtime.NumCPU(), 8),
		dir:     filepath.Join(".bench_build", "perfbench", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		setups:  5,
	}
	timer := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", w.name, hardLimit)
		os.RemoveAll(cfg.dir)
		os.Exit(3)
	})
	defer timer.Stop()
	defer os.RemoveAll(cfg.dir)

	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := assemble(w, cfg, rep)
	if rep.tr != nil {
		if err := rep.tr.write(tracePath(w, cfg)); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	printReport(stdout, w, cfg, rep, res)
	if res.Correct {
		return 0
	}
	for _, e := range rep.errs {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, e)
	}
	return 1
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// assemble builds the result line. A run is correct when nothing failed
// and every metric it must print was measured.
func assemble(w workload, cfg config, rep *report) result {
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	values, defs := rep.e2e, endToEnd
	if values == nil {
		values = map[string]float64{}
	}
	values["setup_s"] = median(secondsOf(rep.setup))
	values["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		values, defs = rep.layers, perLayer
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.errs = append(rep.errs, fmt.Sprintf("metric %s was not measured", d.Name))
			res.Correct = false
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

func printReport(out io.Writer, w workload, cfg config, rep *report, res result) {
	prov := provenance(w, cfg, rep)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)
	setupS := res.Metrics["setup_s"].Value
	if !cfg.trace {
		note := rep.setupNote
		if note == "" {
			note = fmt.Sprintf("median of %d set-ups", len(rep.setup))
		}
		fmt.Fprintf(out, "%-22s %14.4f %-5s %s\n", "setup_s", setupS, "s", note)
		for _, n := range rep.named {
			fmt.Fprintf(out, "%-22s %14.4f %-5s %s\n", n.name, n.value, n.unit, n.note)
		}
		fmt.Fprintf(out, "%-22s %14.4f %-5s\n", "peak_rss_mb", res.Metrics["peak_rss_mb"].Value, "MB")
	} else {
		fmt.Fprintf(out, "spans written to %s\n", tracePath(w, cfg))
	}
	fmt.Fprintf(out, "%-22s %14.4f %-5s %d failed of %d attempted\n", "fail_frac",
		float64(res.Failed)/float64(res.Attempted), "frac", res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(out, "metric %-28s %16s %s\n", k, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}

func tracePath(w workload, cfg config) string {
	return filepath.Join(".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
}

// provenance says what was run, where and on which inputs.
func provenance(w workload, cfg config, rep *report) map[string]any {
	p := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"setups":     len(rep.setup),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
		"dirty":      "unknown",
		"source":     os.Getenv("PERFBENCH_SOURCE_SHA256"),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	for k, v := range rep.prov {
		p[k] = v
	}
	return p
}
