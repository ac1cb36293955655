package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mbe "repro"
	"repro/internal/server"
)

// pollSchedule is the wait before each GET /v1/jobs/{id}; after the last
// step the client keeps polling at the last interval.
var pollSchedule = []time.Duration{
	500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
	4 * time.Millisecond, 8 * time.Millisecond,
}

func pollScheduleString() string {
	parts := make([]string, len(pollSchedule))
	for i, d := range pollSchedule {
		parts[i] = d.String()
	}
	return strings.Join(parts, ",") + " then every " + pollSchedule[len(pollSchedule)-1].String()
}

// hitEvery makes every hitEvery-th iteration of a client a cache-hit
// query instead of a fresh upload.
const hitEvery = 4

// maxErrs bounds the failure messages a run keeps for its report.
const maxErrs = 5

// opTimeout bounds one client operation.
const opTimeout = 60 * time.Second

// daemon is an in-process mbed: server.New behind a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{}
	client *http.Client
}

func bootDaemon(dir string, executors int) (*daemon, error) {
	srv, err := server.New(server.Config{
		Dir:            dir,
		Concurrency:    executors,
		MaxJobs:        64,
		DefaultThreads: 1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(5 * time.Second)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return d, nil
}

// close stops the listener, waits for the serve loop, then stops the
// executors.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	if cerr := d.srv.Close(5 * time.Second); err == nil {
		err = cerr
	}
	return err
}

// errRefused marks a request the daemon shed with 429.
var errRefused = errors.New("refused (429)")

// call sends one request and decodes a JSON reply into out.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status already says what happened
		return errRefused
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stream reads a job's NDJSON results and digests them.
func (d *daemon) stream(ctx context.Context, jobID string) (mbe.Digest, error) {
	var dg mbe.Digest
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/jobs/"+jobID+"/results", nil)
	if err != nil {
		return dg, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return dg, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dg, fmt.Errorf("results %s: %s", jobID, resp.Status)
	}
	if resp.Header.Get("X-MBE-Partial") != "" {
		return dg, fmt.Errorf("results %s: partial", jobID)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(resp.Body, 1<<16))
	var rec struct {
		L []int32 `json:"l"`
		R []int32 `json:"r"`
	}
	for {
		rec.L, rec.R = rec.L[:0], rec.R[:0]
		if err := dec.Decode(&rec); err == io.EOF {
			return dg, nil
		} else if err != nil {
			return dg, err
		}
		dg.Observe(rec.L, rec.R)
	}
}

// scrape reads GET /metrics and sums every sample of each family.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// doneJob is a finished fresh job a client can re-submit for a cache hit.
type doneJob struct {
	spec []byte
	ref  mbe.Digest
}

// jobSample is what a client learns about one fresh job.
type jobSample struct {
	total, wait time.Duration
	runMS       float64
	polls       int
}

// svcStats is the outcome of one closed-loop client session.
type svcStats struct {
	fresh     []jobSample
	hits      []time.Duration
	hitMisses int64 // re-submits the result cache did not serve
	attempted int64
	failed    int64
	refused   int64
	elapsed   time.Duration
	posts     int64 // submit-side requests (uploads and job submits)
}

// svcSession drives the daemon with its clients closed-loop clients until
// the deadline, until the uploads run out or, when maxIters is set,
// until each client has made that many iterations. The first warm fresh
// jobs are run and verified but not timed.
type svcSession struct {
	d        *daemon
	uploads  []upload
	clients  int
	warm     int
	hitEvery int
	maxIters int
	tr       *tracer

	next atomic.Int64
	mu   sync.Mutex
	st   svcStats
	errs []string
}

func (s *svcSession) run(until time.Time) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(c, until)
		}(c)
	}
	wg.Wait()
	s.st.elapsed = time.Since(start)
}

func (s *svcSession) client(c int, until time.Time) {
	var done []doneJob
	for it := 0; time.Now().Before(until) && (s.maxIters == 0 || it < s.maxIters); it++ {
		if it%s.hitEvery == s.hitEvery-1 && len(done) > 0 {
			dj := done[len(done)-1]
			d, missed, err := s.hit(fmt.Sprintf("c%d-hit%d", c, it), dj)
			s.record(err, func(st *svcStats) {
				if missed {
					st.hitMisses++
				} else {
					st.hits = append(st.hits, d)
				}
			})
			continue
		}
		i := int(s.next.Add(1) - 1)
		if i >= len(s.uploads) {
			return
		}
		js, dj, err := s.fresh(fmt.Sprintf("job%d", i), s.uploads[i])
		if err == nil {
			done = append(done, dj)
		}
		timed := i >= s.warm
		s.record(err, func(st *svcStats) {
			if timed {
				st.fresh = append(st.fresh, js)
			}
		})
	}
}

func (s *svcSession) record(err error, ok func(*svcStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.attempted++
	if err == nil {
		ok(&s.st)
		return
	}
	s.st.failed++
	if errors.Is(err, errRefused) {
		s.st.refused++
	}
	if len(s.errs) < maxErrs {
		s.errs = append(s.errs, err.Error())
	}
}

// fresh uploads a graph, submits a job on it, polls until it is done
// and streams the results, timing upload request to last verified line.
func (s *svcSession) fresh(trace string, up upload) (jobSample, doneJob, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var js jobSample
	root := s.tr.begin(trace, "svc.job", 0)

	sp := s.tr.begin(trace, "server.upload", root.id)
	var g struct {
		GraphID string `json:"graph_id"`
	}
	s.countPost()
	err := s.d.call(ctx, http.MethodPost, "/v1/graphs", up.body, &g)
	sp.end()
	if err != nil {
		return js, doneJob{}, err
	}

	spec, _ := json.Marshal(server.JobSpec{GraphID: g.GraphID, Algorithm: "AdaMBE", Threads: 1})
	sp = s.tr.begin(trace, "server.submit", root.id)
	var sub struct {
		JobID string `json:"job_id"`
	}
	s.countPost()
	err = s.d.call(ctx, http.MethodPost, "/v1/jobs", spec, &sub)
	sp.end()
	if err != nil {
		return js, doneJob{}, err
	}

	if err := s.finish(ctx, trace, root.id, sub.JobID, up.ref, &js); err != nil {
		return js, doneJob{}, err
	}
	js.total = root.end()
	return js, doneJob{spec: spec, ref: up.ref}, nil
}

// finish polls a submitted job on the poll schedule until it is done,
// then streams its results and checks them against ref.
func (s *svcSession) finish(ctx context.Context, trace string, parent int64, jobID string, ref mbe.Digest, js *jobSample) error {
	wait := s.tr.begin(trace, "server.wait", parent)
	for step := 0; ; step++ {
		time.Sleep(pollSchedule[min(step, len(pollSchedule)-1)])
		var m server.Manifest
		sp := s.tr.begin(trace, "server.poll", wait.id)
		err := s.d.call(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, &m)
		sp.end()
		js.polls++
		if err != nil {
			return err
		}
		if m.State == server.JobDone && m.Result != nil {
			js.runMS = m.Result.ElapsedMS
			break
		}
		if m.State.Terminal() {
			return fmt.Errorf("job %s ended %s: %s", jobID, m.State, m.Error)
		}
	}
	js.wait = wait.end()

	sp := s.tr.begin(trace, "server.stream", parent)
	got, err := s.d.stream(ctx, jobID)
	sp.end()
	if err != nil {
		return err
	}
	if !got.Equal(ref) {
		return fmt.Errorf("job %s: digest %v, want %v", jobID, got, ref)
	}
	return nil
}

// hit re-submits a finished spec, which the daemon serves from its
// result cache, and streams the results, timing submit to last line.
// The daemon may run the spec again instead; hit then follows that job
// to its verified results and reports the miss.
func (s *svcSession) hit(trace string, dj doneJob) (time.Duration, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := s.tr.begin(trace, "svc.hit", 0)
	sp := s.tr.begin(trace, "server.submit_hit", root.id)
	var sub struct {
		JobID    string `json:"job_id"`
		CacheHit bool   `json:"cache_hit"`
	}
	s.countPost()
	err := s.d.call(ctx, http.MethodPost, "/v1/jobs", dj.spec, &sub)
	sp.end()
	if err != nil {
		return 0, false, err
	}
	if !sub.CacheHit {
		var js jobSample
		err := s.finish(ctx, trace, root.id, sub.JobID, dj.ref, &js)
		return root.end(), true, err
	}
	sp = s.tr.begin(trace, "server.stream_hit", root.id)
	got, err := s.d.stream(ctx, sub.JobID)
	sp.end()
	if err != nil {
		return 0, false, err
	}
	if !got.Equal(dj.ref) {
		return 0, false, fmt.Errorf("cache hit %s: digest %v, want %v", sub.JobID, got, dj.ref)
	}
	return root.end(), false, nil
}

func (s *svcSession) countPost() {
	s.mu.Lock()
	s.st.posts++
	s.mu.Unlock()
}

// svcRun is one client session plus the daemon's /metrics around it.
type svcRun struct {
	stats         svcStats
	before, after map[string]float64
	errs          []string
}

// measure runs the session until the deadline and scrapes /metrics
// before and after it.
func (s *svcSession) measure(until time.Time) svcRun {
	var r svcRun
	var err error
	if r.before, err = scrape(context.Background(), s.d.client, s.d.url); err != nil {
		s.record(err, nil)
	}
	s.run(until)
	if r.after, err = scrape(context.Background(), s.d.client, s.d.url); err != nil {
		s.record(err, nil)
	}
	r.stats = s.st
	r.errs = s.errs
	return r
}

// freshMS is the timed fresh jobs' upload-to-last-line latency in ms.
func (r svcRun) freshMS() []float64 {
	out := make([]float64, len(r.stats.fresh))
	for i, j := range r.stats.fresh {
		out[i] = ms(j.total)
	}
	return out
}

// serverLayers derives the server.* per-layer metrics from a traced
// session: the client spans plus the daemon's /metrics deltas.
func serverLayers(r svcRun, tr *tracer) map[string]float64 {
	delta := func(name string) float64 { return r.after[name] - r.before[name] }
	var lag, run []float64
	polls := 0
	for _, j := range r.stats.fresh {
		lag = append(lag, ms(j.wait)-j.runMS)
		run = append(run, j.runMS)
		polls += j.polls
	}
	queue := frac(delta("mbed_job_queue_wait_seconds_sum"), delta("mbed_job_queue_wait_seconds_count")) * 1000
	hits, misses := delta("mbed_cache_hits_total"), delta("mbed_cache_misses_total")
	return map[string]float64{
		"server.upload_ms":       tr.medianMS("server.upload"),
		"server.submit_ms":       tr.medianMS("server.submit"),
		"server.stream_ms":       tr.medianMS("server.stream"),
		"server.queue_wait_ms":   queue,
		"server.run_ms":          median(run),
		"server.done_lag_ms":     median(lag) - queue,
		"server.polls_per_job":   frac(float64(polls), float64(len(r.stats.fresh))),
		"server.cache_hit_frac":  frac(hits, hits+misses),
		"server.shed_frac":       frac(delta("mbed_admission_shed_total"), float64(r.stats.posts)),
		"server.retries_per_job": frac(delta("mbed_job_retries_total"), delta("mbed_jobs_submitted_total")),
	}
}
