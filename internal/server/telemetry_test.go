package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// submitJobTraced is submitJob with an explicit X-MBE-Trace header.
func (d *testDaemon) submitJobTraced(spec server.JobSpec, trace string) (submitResponse, *http.Response) {
	d.t.Helper()
	blob, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", d.ts.URL+"/v1/jobs", bytes.NewReader(blob))
	if err != nil {
		d.t.Fatal(err)
	}
	req.Header.Set(server.TraceHeader, trace)
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		d.t.Fatalf("submit: bad JSON: %v", err)
	}
	return out, resp
}

// scrapeMetrics fetches /metrics and parses the exposition into a
// map of "name{labels}" -> value.
func (d *testDaemon) scrapeMetrics() map[string]float64 {
	d.t.Helper()
	resp, err := d.ts.Client().Get(d.ts.URL + "/metrics")
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		d.t.Fatalf("GET /metrics content type %q", ct)
	}
	return parseProm(d.t, resp.Body)
}

// parseProm is a minimal Prometheus text-format reader: enough to fail
// on structurally broken output (bad value, sample before any header).
func parseProm(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sawHeader := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			sawHeader = true
			continue
		}
		if !sawHeader {
			t.Fatalf("sample %q before any HELP/TYPE header", line)
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsReconcile runs jobs against a live daemon and checks that
// GET /metrics serves parseable Prometheus text whose counters and
// histogram counts agree with the work actually performed.
func TestMetricsReconcile(t *testing.T) {
	d := startDaemon(t, server.Config{})
	g := smallGraph()
	id := d.submitGraph(g)

	const jobs = 3
	for i := 0; i < jobs; i++ {
		// Distinct seeds with ordering "rand" defeat the result cache.
		sub, resp := d.submitJob(server.JobSpec{GraphID: id, Ordering: "rand", Seed: int64(i + 1)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		if m := d.wait(sub.JobID, time.Minute); m.State != server.JobDone {
			t.Fatalf("job %d finished %s", i, m.State)
		}
	}
	// One cache hit on top.
	if hit, _ := d.submitJob(server.JobSpec{GraphID: id, Ordering: "rand", Seed: 1}); !hit.CacheHit {
		t.Fatalf("expected cache hit, got %+v", hit)
	}

	m := d.scrapeMetrics()
	expect := map[string]float64{
		"mbed_jobs_submitted_total":               jobs,
		`mbed_jobs_completed_total{state="done"}`: jobs,
		"mbed_cache_misses_total":                 jobs,
		"mbed_cache_hits_total":                   1,
		"mbed_job_queue_wait_seconds_count":       jobs,
		"mbed_job_run_seconds_count":              jobs,
		"mbed_jobs_active":                        0,
	}
	for key, want := range expect {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	// Histogram internal consistency: the +Inf bucket is the count.
	if inf, cnt := m[`mbed_job_run_seconds_bucket{le="+Inf"}`], m["mbed_job_run_seconds_count"]; inf != cnt {
		t.Errorf("run_seconds +Inf bucket %v != count %v", inf, cnt)
	}
	// Requests flowed through the instrumented mux: at minimum the three
	// submits, the polls and this scrape itself.
	var reqs float64
	for key, v := range m {
		if strings.HasPrefix(key, "mbed_http_requests_total{") {
			reqs += v
		}
	}
	if reqs < jobs+1 {
		t.Errorf("mbed_http_requests_total sums to %v, want >= %d", reqs, jobs+1)
	}
	if m[`mbed_http_requests_total{route="/v1/jobs",code="202"}`] != jobs {
		t.Errorf("submit route counter = %v, want %d", m[`mbed_http_requests_total{route="/v1/jobs",code="202"}`], jobs)
	}

	// Counters are monotone across scrapes.
	m2 := d.scrapeMetrics()
	for key, v := range m {
		if strings.HasSuffix(key, "_total") || strings.HasSuffix(key, "_count") {
			if m2[key] < v {
				t.Errorf("%s went backwards: %v -> %v", key, v, m2[key])
			}
		}
	}
}

// TestTraceEchoAndMint checks the header contract: a client-supplied
// X-MBE-Trace is echoed verbatim and recorded on the job; absent one,
// the daemon mints an id and still echoes it.
func TestTraceEchoAndMint(t *testing.T) {
	d := startDaemon(t, server.Config{})
	id := d.submitGraph(smallGraph())

	const trace = "trace-echo-test.1"
	sub, resp := d.submitJobTraced(server.JobSpec{GraphID: id}, trace)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(server.TraceHeader); got != trace {
		t.Errorf("echoed trace %q, want %q", got, trace)
	}
	final := d.wait(sub.JobID, time.Minute)
	if final.TraceID != trace {
		t.Errorf("manifest trace %q, want %q", final.TraceID, trace)
	}

	// Results stream (NDJSON) echoes the trace too.
	req, _ := http.NewRequest("GET", d.ts.URL+"/v1/jobs/"+sub.JobID+"/results", nil)
	req.Header.Set(server.TraceHeader, trace)
	sresp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if got := sresp.Header.Get(server.TraceHeader); got != trace {
		t.Errorf("results stream echoed %q, want %q", got, trace)
	}

	// No client trace: the daemon mints one (t + 16 hex).
	sub2, resp2 := d.submitJob(server.JobSpec{GraphID: id, Seed: 7, Ordering: "rand"})
	minted := resp2.Header.Get(server.TraceHeader)
	if len(minted) != 17 || !strings.HasPrefix(minted, "t") {
		t.Errorf("minted trace %q, want t+16 hex", minted)
	}
	if m := d.wait(sub2.JobID, time.Minute); m.TraceID != minted {
		t.Errorf("manifest trace %q != minted header %q", m.TraceID, minted)
	}
}

// TestTraceSurvivesRecovery is the kill -9 half of the tracing
// contract: interrupt a running job, restart over the same store, and
// the recovered job must carry the SAME trace id — on disk, in the
// status API, and in the recovery path's accounting.
func TestTraceSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	g := bigGraph()

	const trace = "trace-recovery-test"
	d1 := startDaemon(t, server.Config{
		Dir:             dir,
		Concurrency:     1,
		CheckpointEvery: 2 * time.Millisecond,
	})
	id := d1.submitGraph(g)
	sub, resp := d1.submitJobTraced(server.JobSpec{GraphID: id, Threads: 1}, trace)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	spoolDir := filepath.Join(dir, "jobs", sub.JobID, "spool")
	waitForFile(t, filepath.Join(spoolDir, "checkpoint.json"), 30*time.Second)
	d1.stop()

	// The manifest a kill -9 leaves behind already carries the trace.
	m, err := readManifest(dir, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if m.TraceID != trace {
		t.Fatalf("interrupted manifest trace %q, want %q", m.TraceID, trace)
	}

	d2 := startDaemon(t, server.Config{Dir: dir, Concurrency: 1})
	final := d2.wait(sub.JobID, 2*time.Minute)
	if final.State != server.JobDone {
		t.Fatalf("recovered job finished %s (error %q)", final.State, final.Error)
	}
	if final.TraceID != trace {
		t.Errorf("trace changed across crash recovery: %q, want %q", final.TraceID, trace)
	}
	if mm := d2.scrapeMetrics(); mm["mbed_jobs_recovered_total"] != 1 {
		t.Errorf("mbed_jobs_recovered_total = %v, want 1", mm["mbed_jobs_recovered_total"])
	}
}

// TestShedCarriesTrace pins the 429 path: a shed response must echo the
// client's trace id, advertise Retry-After, and count the shed under
// its admission gate.
func TestShedCarriesTrace(t *testing.T) {
	// One token, near-zero refill: the graph submit spends it, the job
	// submit sheds deterministically.
	d := startDaemon(t, server.Config{RatePerSec: 1e-9, Burst: 1})
	id := d.submitGraph(smallGraph())

	const trace = "trace-shed-test"
	sub, resp := d.submitJobTraced(server.JobSpec{GraphID: id}, trace)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit: status %d (%+v), want 429", resp.StatusCode, sub)
	}
	if got := resp.Header.Get(server.TraceHeader); got != trace {
		t.Errorf("429 echoed trace %q, want %q", got, trace)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	m := d.scrapeMetrics()
	if m[`mbed_admission_shed_total{reason="rate_limit"}`] != 1 {
		t.Errorf(`shed{rate_limit} = %v, want 1`, m[`mbed_admission_shed_total{reason="rate_limit"}`])
	}
	if m[`mbed_http_requests_total{route="/v1/jobs",code="429"}`] != 1 {
		t.Errorf("429 request counter = %v, want 1", m[`mbed_http_requests_total{route="/v1/jobs",code="429"}`])
	}
}

// TestTraceSanitized: hostile or oversized trace headers must not be
// echoed verbatim into responses and logs.
func TestTraceSanitized(t *testing.T) {
	d := startDaemon(t, server.Config{})
	id := d.submitGraph(smallGraph())

	// Printable but hostile: quotes and angle brackets would break log
	// lines and exposition labels; the length would bloat every event.
	evil := `abc"def<script>` + strings.Repeat("x", 200)
	sub, resp := d.submitJobTraced(server.JobSpec{GraphID: id}, evil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	got := resp.Header.Get(server.TraceHeader)
	if strings.ContainsAny(got, `"<>`) || len(got) > 64 {
		t.Errorf("hostile trace echoed unsanitized: %q", got)
	}
	if m := d.wait(sub.JobID, time.Minute); strings.ContainsAny(m.TraceID, `"<>`) || len(m.TraceID) > 64 {
		t.Errorf("hostile trace persisted unsanitized: %q", m.TraceID)
	}
}

// TestDoneStatusImpliesBookkeeping: once a status read reports a job
// done, the result cache, the admission ledger and the completion
// counter already reflect it. The publish hook stalls every terminal
// transition between its bookkeeping and the state flip, so a daemon
// that flipped the state first would fail this on every run.
func TestDoneStatusImpliesBookkeeping(t *testing.T) {
	d := startDaemon(t, server.Config{
		FaultHook: func(site string) error {
			if site == "server/publish" {
				time.Sleep(200 * time.Millisecond)
			}
			return nil
		},
	})
	id := d.submitGraph(smallGraph())
	spec := server.JobSpec{GraphID: id, Threads: 1}
	sub, resp := d.submitJob(spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		var st struct{ server.Manifest }
		d.do("GET", "/v1/jobs/"+sub.JobID, nil, &st)
		if st.State == server.JobDone {
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job reached %s (error %q), want done", st.State, st.Error)
		}
	}
	// No pause between the done read and these requests.
	hit, resp := d.submitJob(spec)
	if resp.StatusCode != http.StatusOK || !hit.CacheHit || hit.JobID != sub.JobID {
		t.Fatalf("re-submit after done: status %d %+v, want cache hit on %s", resp.StatusCode, hit, sub.JobID)
	}
	if hit.State != server.JobDone || hit.Result == nil {
		t.Errorf("cache hit served state %s result %+v, want done with a result", hit.State, hit.Result)
	}
	m := d.scrapeMetrics()
	for key, want := range map[string]float64{
		`mbed_jobs_completed_total{state="done"}`: 1,
		"mbed_jobs_active":                        0,
		"mbed_cache_hits_total":                   1,
	} {
		if got := m[key]; got != want {
			t.Errorf("%s = %v right after the done read, want %v", key, got, want)
		}
	}
}
