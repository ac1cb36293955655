package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	mbe "repro"
	"repro/internal/dist"
)

// Cluster settings for dist-dense: every worker runs serial AdaMBE over
// its leased root range.
const (
	distRanges        = 32
	distPollInterval  = 2 * time.Millisecond
	distFlushInterval = 50 * time.Millisecond
)

// clusterRig is a loopback listener whose handler is the current run's
// coordinator; one rig serves every cluster run of a benchmark run.
type clusterRig struct {
	hs      *http.Server
	url     string
	served  chan struct{}
	client  *http.Client
	current atomic.Pointer[dist.Coordinator]
}

func bootCluster() (*clusterRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &clusterRig{
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		c := r.current.Load()
		if c == nil {
			http.Error(w, "no cluster run in progress", http.StatusServiceUnavailable)
			return
		}
		c.Handler().ServeHTTP(w, req)
	})}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return r, nil
}

func (r *clusterRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.served
	r.client.CloseIdleConnections()
	return err
}

// clusterRun is what one cluster run measured.
type clusterRun struct {
	wall    time.Duration // coordinator start to verified global digest
	events  []event       // dist_lease_granted / dist_range_done
	start   time.Time
	metrics map[string]float64 // the coordinator's /metrics at the end
	workers int
}

// run shards g's roots over workers in-process workers and checks the
// global digest against ref.
func (r *clusterRig) run(dir string, g graphPair, ref mbe.Digest, workers, ranges int, tr *tracer, trace string) (clusterRun, error) {
	log := newEventLog("dist_lease_granted", "dist_range_done")
	out := clusterRun{workers: workers}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	root := tr.begin(trace, "dist.cluster", 0)
	out.start = time.Now()
	spec := dist.Spec{Algorithm: "AdaMBE", Ordering: "asc"}.WithGraph(g.in)
	sp := tr.begin(trace, "dist.coordinator_boot", root.id)
	coord, err := dist.NewCoordinator(dist.CoordOptions{
		Spec: spec, Dir: dir, Ranges: ranges, Log: slog.New(log),
	})
	sp.end()
	if err != nil {
		return out, err
	}
	coord.Start()
	defer coord.Stop()
	r.current.Store(coord)
	defer r.current.Store(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	sp = tr.begin(trace, "dist.workers", root.id)
	for i := 0; i < workers; i++ {
		w := dist.NewWorker(dist.WorkerOptions{
			Coord: r.url, ID: fmt.Sprintf("w%d", i), Graph: g.in, Threads: 1,
			Client: r.client, PollInterval: distPollInterval, FlushInterval: distFlushInterval,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	sp.end()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	got, complete := coord.GlobalDigest()
	if !complete {
		return out, fmt.Errorf("cluster run ended incomplete")
	}
	if !got.Equal(ref) {
		return out, fmt.Errorf("global digest %v, want %v", got, ref)
	}
	out.wall = root.end()
	out.events = log.take()
	sp = tr.begin(trace, "dist.metrics", 0)
	out.metrics, err = scrape(ctx, r.client, r.url)
	sp.end()
	return out, err
}

// distLayers derives the dist.* per-layer metrics from one cluster run:
// per-range spans from lease grant to range done, plus the coordinator's
// counters. serialS is a serial enumeration of the same graph.
func distLayers(cr clusterRun, serialS float64) map[string]float64 {
	granted := map[string]time.Time{} // range -> latest grant
	owner := map[string]string{}      // range -> worker holding it
	lastDone := map[string]time.Time{}
	var first, end time.Time
	var ranges []float64
	busy := 0.0
	for _, e := range cr.events {
		key := e.Attrs["range"]
		switch e.Msg {
		case "dist_lease_granted":
			granted[key], owner[key] = e.At, e.Attrs["worker"]
			if first.IsZero() {
				first = e.At
			}
		case "dist_range_done":
			g, ok := granted[key]
			if !ok {
				continue
			}
			d := e.At.Sub(g).Seconds()
			ranges = append(ranges, d)
			busy += d
			lastDone[owner[key]] = e.At
			end = e.At
		}
	}
	// The tail runs from the first worker to go idle for good to the
	// last range finishing.
	var idle time.Time
	for _, t := range lastDone {
		if idle.IsZero() || t.Before(idle) {
			idle = t
		}
	}
	wall := cr.wall.Seconds()
	return map[string]float64{
		"dist.bootstrap_s":      first.Sub(cr.start).Seconds(),
		"dist.range_p50_s":      median(ranges),
		"dist.range_max_s":      quantile(ranges, 1),
		"dist.tail_s":           end.Sub(idle).Seconds(),
		"dist.worker_busy_frac": frac(busy, float64(cr.workers)*wall),
		"dist.wm_frames":        cr.metrics["dist_watermark_frames_total"],
		"dist.leases_reissued":  cr.metrics["dist_leases_reissued_total"],
		"dist.frames_rejected":  cr.metrics["dist_frames_rejected_total"],
		"dist.overhead_pct":     overheadPct(wall, serialS/float64(cr.workers)),
	}
}
