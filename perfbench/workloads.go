package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	mbe "repro"
)

// config is one benchmark run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	threads int    // parallel width, clients, executors and workers: min(nproc, 8)
	dir     string // scratch directory inside the checkout
	setups  int    // set-up repetitions; setup_s is their median
	tiny    bool   // small inputs, for the benchmark's own tests
	corrupt bool   // spoil one reference digest, for the benchmark's own tests
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	errs              []string
	setup             []time.Duration
	setupNote         string             // how setup_s was taken, when not from whole set-ups
	e2e               map[string]float64 // end-to-end metrics by name
	named             []named            // the same numbers under the workload's own names
	layers            map[string]float64 // per-layer metrics (traced runs)
	prov              map[string]any     // workload-specific provenance
	tr                *tracer            // spans of a traced run
}

// named is a metric printed under the name a workload's users know it by.
type named struct {
	name, unit string
	value      float64
	note       string
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen and why BENCHMARK.json gates only the dense ones.
var workloads = []workload{
	{"lib-dense", runLib},
	{"svc-small", runSvc},
	{"dist-dense", runDist},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeatSetup runs setup cfg.setups times and records each duration. It
// keeps the last result and closes the others. Every repetition must
// produce the same references, which same compares.
func repeatSetup[T any](cfg config, rep *report, setup func(i int) (T, error), same func(a, b T) bool, closeFn func(T)) (T, error) {
	var last T
	for i := 0; i < max(cfg.setups, 1); i++ {
		runtime.GC() // the garbage of the set-up before is not this one's cost
		t0 := time.Now()
		s, err := setup(i)
		rep.setup = append(rep.setup, time.Since(t0))
		if i > 0 {
			closeFn(last)
		}
		if err != nil {
			closeFn(s)
			return s, err
		}
		if i > 0 && !same(s, last) {
			closeFn(s)
			return s, fmt.Errorf("set-up %d produced different references", i)
		}
		last = s
	}
	return last, nil
}

// measureHalves runs the measured loop for the whole run when tracing is
// off. A traced run spends the first half untraced and the second half
// traced and returns both: the end-to-end metrics come from the first,
// the spans from the second, and the two give the tracing overhead.
func measureHalves[L any](cfg config, measure func(until time.Time, tr *tracer) L) (plain, traced L, tr *tracer, gcMS float64) {
	run := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC() // set-up garbage is not the measured loop's cost
	if !cfg.trace {
		return measure(time.Now().Add(run), nil), traced, nil, 0
	}
	plain = measure(time.Now().Add(run/2), nil)
	tr = newTracer()
	gc0 := gcPauseMS()
	traced = measure(time.Now().Add(run/2), tr)
	return plain, traced, tr, gcPauseMS() - gc0
}

func denseScale(cfg config) int {
	if cfg.tiny {
		return 8
	}
	return 1
}

// checkDenseCount checks a reference digest of the full-size dense graph
// against its known biclique count.
func checkDenseCount(cfg config, ref mbe.Digest) error {
	if denseScale(cfg) == 1 && ref.Count != ghBicliques {
		return fmt.Errorf("reference has %d bicliques, the GH graph has %d", ref.Count, ghBicliques)
	}
	return nil
}

func denseGenerator(cfg config) string {
	c := ghConfig
	if s := denseScale(cfg); s > 1 {
		c.NU, c.NV, c.Communities, c.NoiseEdges = c.NU/s, c.NV/s, c.Communities/s, c.NoiseEdges/s
	}
	return fmt.Sprintf("gen.Affiliation(%d, %+v).Orient(), both sides relabeled by a permutation drawn from --seed", ghSeed, c)
}

// ---- lib-dense ------------------------------------------------------

// rootSample is a root range whose BBK digest was taken in set-up.
type rootSample struct {
	start, end int32
	ref        mbe.Digest
}

type libState struct {
	g       graphPair
	genTime time.Duration
	samples []rootSample
}

// The BBK-checked root ranges: one drawn from each of libSamples equal
// slices of the root order. Root costs differ by an order of magnitude,
// so a sample stratified this way keeps set-up time alike across seeds.
const (
	libSamples     = 16
	libSampleWidth = 2 // roots per range
)

func setupLib(cfg config) (libState, error) {
	t0 := time.Now()
	g, err := makeDense(cfg.seed, denseScale(cfg))
	st := libState{g: g, genTime: time.Since(t0)}
	if err != nil {
		return st, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	nv := int32(g.pub.NV())
	for i := int32(0); i < libSamples; i++ {
		lo, hi := nv*i/libSamples, nv*(i+1)/libSamples
		start := lo + rng.Int31n(hi-lo-libSampleWidth+1)
		s := rootSample{start: start, end: start + libSampleWidth}
		s.ref, err = digestOf(g.pub, mbe.Options{Algorithm: mbe.BBK, StartRoot: s.start, EndRoot: s.end})
		if err != nil {
			return st, fmt.Errorf("BBK sample [%d,%d): %w", s.start, s.end, err)
		}
		st.samples = append(st.samples, s)
	}
	return st, nil
}

type libLoop struct {
	serial, par []time.Duration
	ops         int64
	elapsed     time.Duration
}

// libRound runs serial AdaMBE then ParAdaMBE, each with a digest handler.
func libRound(g *mbe.Graph, threads int, tr *tracer, trace string) (serial, par time.Duration, ds, dp mbe.Digest, err error) {
	sp := tr.begin(trace, "lib.serial", 0)
	ds, err = digestOf(g, mbe.Options{})
	serial = sp.end()
	if err != nil {
		return
	}
	sp = tr.begin(trace, "lib.parallel", 0)
	dp, err = digestOf(g, mbe.Options{Algorithm: mbe.ParAdaMBE, Threads: threads})
	par = sp.end()
	return
}

func runLib(cfg config) (*report, error) {
	rep := &report{}
	st, err := repeatSetup(cfg, rep, func(int) (libState, error) { return setupLib(cfg) },
		func(a, b libState) bool {
			for i := range a.samples {
				if a.samples[i] != b.samples[i] {
					return false
				}
			}
			return true
		}, func(libState) {})
	if err != nil {
		return nil, err
	}
	// The warm-up round, verified but not timed, fixes the digest every
	// timed round must repeat.
	_, _, ref, dp, err := libRound(st.g.pub, cfg.threads, nil, "warmup")
	rep.attempted += 2
	if err = firstErr(err, check("warm-up parallel", dp, ref, nil), checkDenseCount(cfg, ref)); err != nil {
		return nil, err
	}
	if cfg.corrupt {
		ref.Add(1)
	}

	round := 0
	l, traced, tr, gcMS := measureHalves(cfg, func(until time.Time, tr *tracer) libLoop {
		var l libLoop
		start := time.Now()
		for ; time.Now().Before(until); round++ {
			s, p, ds, dp, err := libRound(st.g.pub, cfg.threads, tr, fmt.Sprintf("round%d", round))
			rep.attempted += 2
			errS, errP := check("serial", ds, ref, err), check("parallel", dp, ref, err)
			for _, e := range []error{errS, errP} {
				if e != nil {
					rep.fail(e)
				}
			}
			if errS != nil || errP != nil {
				continue
			}
			l.serial = append(l.serial, s)
			l.par = append(l.par, p)
			l.ops += 2
		}
		l.elapsed = time.Since(start)
		return l
	})
	// Outside the timing: AdaMBE over each sampled root range must match
	// the BBK digest taken in set-up.
	for _, s := range st.samples {
		rep.attempted++
		d, err := digestOf(st.g.pub, mbe.Options{StartRoot: s.start, EndRoot: s.end})
		if err := check(fmt.Sprintf("roots [%d,%d) vs BBK", s.start, s.end), d, s.ref, err); err != nil {
			rep.fail(err)
		}
	}

	enumS, parS := median(secondsOf(l.serial)), median(secondsOf(l.par))
	p90 := quantile(durationsMS(l.serial), 0.9)
	rep.e2e = map[string]float64{
		"p50_ms":     enumS * 1000,
		"p90_ms":     p90,
		"alt_p50_ms": parS * 1000,
		"ops_per_s":  float64(l.ops) / l.elapsed.Seconds(),
	}
	rep.named = []named{
		{"enum_s", "s", enumS, fmt.Sprintf("serial AdaMBE, median of %d", len(l.serial))},
		{"enum_par_s", "s", parS, fmt.Sprintf("ParAdaMBE@%d, median of %d", cfg.threads, len(l.par))},
		{"enum_p90_s", "s", p90 / 1000, "serial AdaMBE, " + p90Note(len(l.serial))},
	}
	rep.prov = map[string]any{
		"generator":   denseGenerator(cfg),
		"threads":     cfg.threads,
		"bbk_samples": fmt.Sprintf("%d root ranges of %d roots, one per 1/%d of the root order", libSamples, libSampleWidth, libSamples),
		"warmup":      "one serial and one parallel run, verified, not timed",
	}
	if cfg.trace {
		layers, _, err := sharedLayers(cfg, tr, st.g, ref, denseReps, nil, probeServer|probeDist)
		if err != nil {
			rep.fail(err)
			return rep, nil
		}
		layers["gen.build_s"] = st.genTime.Seconds()
		layers["go.gc_pause_ms"] = gcMS
		layers["trace.overhead_pct"] = overheadPct(median(secondsOf(traced.serial)), enumS)
		rep.layers, rep.tr = layers, tr
	}
	return rep, nil
}

// ---- svc-small ------------------------------------------------------

type svcState struct {
	uploads []upload
	genTime time.Duration
	d       *daemon
}

// setupSvc makes the uploads in cfg.setups equal parts. Each part
// generates its share of the graphs with their BBK references and boots
// a daemon in place of the previous part's, and is timed as one set-up.
// The references are most of the set-up, so parts give setup_s a median
// without computing any reference twice.
func setupSvc(cfg config, rep *report, n int) (svcState, error) {
	seeds := uploadSeeds(cfg.seed, n)
	parts := max(cfg.setups, 1)
	rep.setupNote = fmt.Sprintf("median of %d set-up parts, each making 1/%d of the uploads and booting a daemon", parts, parts)
	var st svcState
	for i := 0; i < parts; i++ {
		if st.d != nil {
			if err := st.d.close(); err != nil {
				return st, err
			}
			st.d = nil
		}
		runtime.GC() // the garbage of the part before is not this one's cost
		t0 := time.Now()
		ups, gen, err := makeUploads(seeds[n*i/parts : n*(i+1)/parts])
		if err != nil {
			return st, err
		}
		st.d, err = bootDaemon(filepath.Join(cfg.dir, fmt.Sprintf("mbed-%d", i)), cfg.threads)
		rep.setup = append(rep.setup, time.Since(t0))
		if err != nil {
			return st, err
		}
		st.uploads = append(st.uploads, ups...)
		st.genTime += gen
	}
	return st, nil
}

// svcClientRate is the fresh jobs per second and client the upload pool
// is sized for, above the rate one client reaches on a 2-vCPU machine.
// A run that outpaces it ends early rather than upload a graph twice.
const svcClientRate = 36

func svcPool(cfg config) (n, warm int) {
	warm = 2 * cfg.threads
	if cfg.tiny {
		return warm + 16, warm
	}
	return warm + int(cfg.seconds*svcClientRate)*cfg.threads, warm
}

func runSvc(cfg config) (*report, error) {
	rep := &report{}
	n, warm := svcPool(cfg)
	st, err := setupSvc(cfg, rep, n)
	if err != nil {
		return nil, err
	}
	defer st.d.close()
	if cfg.corrupt {
		st.uploads[warm].ref.Add(1)
	}

	// A traced run gives each half its own share of the uploads.
	pools := [2][]upload{st.uploads, nil}
	if cfg.trace {
		half := len(st.uploads) / 2
		pools = [2][]upload{st.uploads[:half], st.uploads[half:]}
	}
	r, traced, tr, gcMS := measureHalves(cfg, func(until time.Time, tr *tracer) svcRun {
		pool := pools[0]
		if tr != nil {
			pool = pools[1]
		}
		if cfg.tiny {
			// Tiny runs end when the uploads run out, so that every
			// metric gets samples however slow the machine is.
			until = time.Now().Add(time.Hour)
		}
		s := &svcSession{d: st.d, uploads: pool, clients: cfg.threads, warm: warm, hitEvery: hitEvery, tr: tr}
		return s.measure(until)
	})
	for _, run := range []svcRun{r, traced} {
		rep.attempted += run.stats.attempted
		rep.failed += run.stats.failed
		for _, e := range run.errs {
			if len(rep.errs) < maxErrs {
				rep.errs = append(rep.errs, e)
			}
		}
	}

	fresh := r.freshMS()
	hits := durationsMS(r.stats.hits)
	p90 := quantile(fresh, 0.9)
	tail, label := tailQuantile(fresh)
	// Every job the session completed and verified, warm-up included,
	// over the session's wall time.
	rate := float64(r.stats.attempted-r.stats.failed) / r.stats.elapsed.Seconds()
	rep.e2e = map[string]float64{
		"p50_ms":     median(fresh),
		"p90_ms":     p90,
		"alt_p50_ms": median(hits),
		"ops_per_s":  rate,
	}
	rep.named = []named{
		{"job_p50_ms", "ms", median(fresh), fmt.Sprintf("fresh jobs, upload to last verified line, median of %d", len(fresh))},
		{"job_p90_ms", "ms", p90, "fresh jobs, " + p90Note(len(fresh))},
		{"job_tail_ms", "ms", tail, fmt.Sprintf("fresh jobs, %s of %d", label, len(fresh))},
		{"hit_p50_ms", "ms", median(hits), fmt.Sprintf("cache hits, submit to last line, median of %d; %d re-submits missed the cache", len(hits), r.stats.hitMisses)},
		{"jobs_per_s", "1/s", rate, "verified jobs per second, fresh and re-submitted"},
	}
	rep.prov = map[string]any{
		"generator":     fmt.Sprintf("gen.Uniform(seed_i, %d, %d, %d).Orient(), seed_i drawn from --seed", ufShape.NU, ufShape.NV, ufShape.M),
		"uploads":       n,
		"warmup_jobs":   fmt.Sprintf("first %d fresh jobs, verified, not timed", warm),
		"clients":       cfg.threads,
		"executors":     cfg.threads,
		"job_spec":      "AdaMBE, threads 1",
		"hit_every":     hitEvery,
		"poll_schedule": pollScheduleString(),
		"reference":     "BBK on the graph parsed back from each body",
		"loop":          "closed: each client waits for each reply",
	}
	if cfg.trace {
		bodies := make([][]byte, 0, svcParseBodies)
		for _, u := range st.uploads[:min(svcParseBodies, len(st.uploads))] {
			bodies = append(bodies, u.body)
		}
		g, err := pairFromBody(st.uploads[0].body)
		if err == nil {
			rep.layers, _, err = sharedLayers(cfg, tr, g, st.uploads[0].ref, svcReps(cfg), bodies, probeDist)
		}
		if err != nil {
			rep.fail(err)
			return rep, nil
		}
		for k, v := range serverLayers(traced, tr) {
			rep.layers[k] = v
		}
		rep.layers["gen.build_s"] = st.genTime.Seconds()
		rep.layers["go.gc_pause_ms"] = gcMS
		rep.layers["trace.overhead_pct"] = overheadPct(median(traced.freshMS()), median(fresh))
		rep.tr = tr
	}
	return rep, nil
}

// ---- dist-dense -----------------------------------------------------

type distState struct {
	g       graphPair
	genTime time.Duration
	ref     mbe.Digest
	rig     *clusterRig
}

func runDist(cfg config) (*report, error) {
	rep := &report{}
	st, err := repeatSetup(cfg, rep, func(int) (distState, error) {
		t0 := time.Now()
		g, err := makeDense(cfg.seed, denseScale(cfg))
		st := distState{g: g, genTime: time.Since(t0)}
		if err != nil {
			return st, err
		}
		if st.ref, err = digestOf(g.pub, mbe.Options{Algorithm: mbe.ParAdaMBE, Threads: cfg.threads}); err != nil {
			return st, err
		}
		if err := checkDenseCount(cfg, st.ref); err != nil {
			return st, err
		}
		st.rig, err = bootCluster()
		return st, err
	}, func(a, b distState) bool { return a.ref == b.ref }, func(s distState) {
		if s.rig != nil {
			s.rig.close() //nolint:errcheck // an unused set-up listener
		}
	})
	if err != nil {
		return nil, err
	}
	defer st.rig.close()

	runs := 0
	cluster := func(tr *tracer) (clusterRun, error) {
		runs++
		dir := filepath.Join(cfg.dir, fmt.Sprintf("coord-%d", runs))
		return st.rig.run(dir, st.g, st.ref, cfg.threads, distRanges, tr, fmt.Sprintf("cluster%d", runs))
	}
	rep.attempted++
	if _, err := cluster(nil); err != nil {
		return nil, fmt.Errorf("warm-up cluster run: %w", err)
	}
	if cfg.corrupt {
		st.ref.Add(1)
	}
	type distLoop struct {
		cluster, par []time.Duration
		last         clusterRun
		ops          int64
		elapsed      time.Duration
	}
	l, traced, tr, gcMS := measureHalves(cfg, func(until time.Time, tr *tracer) distLoop {
		var l distLoop
		start := time.Now()
		for time.Now().Before(until) {
			rep.attempted += 2
			if cr, err := cluster(tr); err != nil {
				rep.fail(err)
			} else {
				l.cluster = append(l.cluster, cr.wall)
				l.last = cr
				l.ops++
			}
			sp := tr.begin("inproc", "lib.parallel", 0)
			d, err := digestOf(st.g.pub, mbe.Options{Algorithm: mbe.ParAdaMBE, Threads: cfg.threads})
			el := sp.end()
			if err := check("in-process ParAdaMBE", d, st.ref, err); err != nil {
				rep.fail(err)
			} else {
				l.par = append(l.par, el)
				l.ops++
			}
		}
		l.elapsed = time.Since(start)
		return l
	})

	clusterS := median(secondsOf(l.cluster))
	p90 := quantile(durationsMS(l.cluster), 0.9)
	parS := median(secondsOf(l.par))
	rep.e2e = map[string]float64{
		"p50_ms":     clusterS * 1000,
		"p90_ms":     p90,
		"alt_p50_ms": parS * 1000,
		"ops_per_s":  float64(l.ops) / l.elapsed.Seconds(),
	}
	rep.named = []named{
		{"cluster_s", "s", clusterS, fmt.Sprintf("coordinator start to verified global digest, median of %d", len(l.cluster))},
		{"cluster_p90_s", "s", p90 / 1000, p90Note(len(l.cluster))},
		{"inproc_par_s", "s", parS, fmt.Sprintf("ParAdaMBE@%d in one process, median of %d", cfg.threads, len(l.par))},
	}
	rep.prov = map[string]any{
		"generator":      denseGenerator(cfg),
		"workers":        cfg.threads,
		"worker_engine":  "AdaMBE, threads 1, ordering asc",
		"ranges":         distRanges,
		"poll_interval":  distPollInterval.String(),
		"flush_interval": distFlushInterval.String(),
		"reference":      fmt.Sprintf("ParAdaMBE@%d in one process", cfg.threads),
		"warmup":         "one cluster run, verified, not timed",
	}
	if cfg.trace {
		layers, serialS, err := sharedLayers(cfg, tr, st.g, st.ref, denseReps, nil, probeServer)
		if err != nil {
			rep.fail(err)
			return rep, nil
		}
		for k, v := range distLayers(traced.last, serialS) {
			layers[k] = v
		}
		layers["gen.build_s"] = st.genTime.Seconds()
		layers["go.gc_pause_ms"] = gcMS
		layers["trace.overhead_pct"] = overheadPct(median(secondsOf(traced.cluster)), clusterS)
		rep.layers, rep.tr = layers, tr
	}
	return rep, nil
}

// Repetitions of each library-layer measurement: a dense-graph run takes
// seconds, an upload-sized one milliseconds.
const denseReps = 3

func svcReps(cfg config) int {
	if cfg.tiny {
		return 2
	}
	return 15
}

// svcParseBodies is how many upload bodies graph.parse_ms is taken over.
const svcParseBodies = 50

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
