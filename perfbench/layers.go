package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mbe "repro"
	"repro/internal/order"
	"repro/internal/spool"
)

// libLayers measures the library-side layers on one graph, each through
// its public entry point: ordering, the serial and parallel engines with
// Metrics on, emission and instrumentation overheads, and the spool.
// Every run's output is checked against ref. It returns the metrics and
// the median serial (digest handler) time in seconds.
func libLayers(g graphPair, ref mbe.Digest, threads, reps int, dir string, tr *tracer) (map[string]float64, float64, error) {
	out := map[string]float64{}

	var permute []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("layers", "order.permute", 0)
		perm := order.Permutation(g.in, order.DegreeAscending, 0)
		_, err := g.in.PermuteV(perm)
		permute = append(permute, secs(sp.end()))
		if err != nil {
			return nil, 0, err
		}
	}
	out["order.permute_s"] = median(permute)

	// Serial run with Metrics on, plus allocation deltas.
	var m mbe.Metrics
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin("layers", "core.serial_metrics", 0)
	d, err := digestOf(g.pub, mbe.Options{Metrics: &m})
	sp.end()
	runtime.ReadMemStats(&after)
	if err := check("serial with Metrics", d, ref, err); err != nil {
		return nil, 0, err
	}
	nodes := float64(m.NodesGenerated)
	out["core.nodes"] = nodes
	out["core.nonmax_frac"] = frac(float64(m.NodesNonMaximal), nodes)
	out["core.pruned"] = float64(m.NodesPruned)
	out["core.set_intersections"] = float64(m.SetIntersections)
	out["core.bitmaps"] = float64(m.BitmapsCreated)
	out["core.bit_promotion_frac"] = frac(float64(m.BitPromotions), nodes)
	out["core.small_s"] = m.SmallNodeTime.Seconds()
	out["core.large_s"] = m.LargeNodeTime.Seconds()
	out["core.allocs_per_biclique"] = frac(float64(after.Mallocs-before.Mallocs), float64(d.Count))
	out["core.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	// Parallel run with Metrics on: the scheduler counters.
	var pm mbe.Metrics
	sp = tr.begin("layers", "sched.parallel_metrics", 0)
	d, err = digestOf(g.pub, mbe.Options{Algorithm: mbe.ParAdaMBE, Threads: threads, Metrics: &pm})
	sp.end()
	if err := check("parallel with Metrics", d, ref, err); err != nil {
		return nil, 0, err
	}
	spawned := float64(pm.TasksSpawned)
	out["sched.tasks_spawned"] = spawned
	out["sched.steal_frac"] = frac(float64(pm.TasksStolen), spawned)
	out["sched.inline_frac"] = frac(float64(pm.TasksInlined), spawned+float64(pm.TasksInlined))
	out["sched.max_queue_depth"] = float64(pm.MaxQueueDepth)
	out["sched.arena_hit_frac"] = frac(float64(pm.ArenaSpawnHits), float64(pm.ArenaSpawnHits+pm.ArenaSpawnMisses))

	// Overheads: each repetition runs every variant back to back, and a
	// ratio is taken within one repetition, so that the machine slowing
	// down over seconds moves both of its sides alike. The median ratio
	// over repetitions is reported.
	times := map[string][]float64{}
	for i := 0; i < reps; i++ {
		for _, v := range []string{"plain", "digest", "metrics", "recorder", "spooled", "parallel"} {
			secs, err := runVariant(v, g.pub, ref, threads, filepath.Join(dir, fmt.Sprintf("spooled-%d", i)), tr)
			if err != nil {
				return nil, 0, err
			}
			times[v] = append(times[v], secs)
		}
	}
	ratio := func(a, b string) float64 {
		rs := make([]float64, reps)
		for i := range rs {
			rs[i] = times[a][i] / times[b][i]
		}
		return median(rs)
	}
	out["emit.digest_overhead_pct"] = (ratio("digest", "plain") - 1) * 100
	out["obs.metrics_overhead_pct"] = (ratio("metrics", "digest") - 1) * 100
	out["obs.recorder_overhead_pct"] = (ratio("recorder", "digest") - 1) * 100
	out["spool.overhead_pct"] = (ratio("spooled", "plain") - 1) * 100
	out["sched.efficiency"] = ratio("digest", "parallel") / float64(threads)

	if err := spoolLayers(g, ref, reps, filepath.Join(dir, "direct"), out, tr); err != nil {
		return nil, 0, err
	}
	return out, median(times["digest"]), nil
}

// runVariant runs one serial or parallel configuration and returns its
// wall time in seconds.
func runVariant(v string, g *mbe.Graph, ref mbe.Digest, threads int, dir string, tr *tracer) (float64, error) {
	var d mbe.Digest
	opts := mbe.Options{OnBiclique: d.Observe}
	switch v {
	case "plain":
		opts.OnBiclique = nil
	case "metrics":
		opts.Metrics = &mbe.Metrics{}
	case "recorder":
		opts.Obs = mbe.NewRecorder(mbe.RunInfo{Algorithm: "AdaMBE", Threads: 1, NU: g.NU(), NV: g.NV(), Edges: g.NumEdges()})
	case "spooled":
		opts.OnBiclique = nil
		opts.SpoolDir = dir
		defer os.RemoveAll(dir)
	case "parallel":
		opts.Algorithm, opts.Threads = mbe.ParAdaMBE, threads
	}
	sp := tr.begin("layers", "variant."+v, 0)
	res, err := mbe.Enumerate(g, opts)
	elapsed := sp.end()
	if err == nil && res.StopReason != mbe.StopNone {
		err = fmt.Errorf("stopped early: %v", res.StopReason)
	}
	switch v {
	case "plain":
		if err == nil && res.Count != ref.Count {
			err = fmt.Errorf("count %d, want %d", res.Count, ref.Count)
		}
	case "spooled":
		if err == nil {
			d, err = mbe.SpoolDigest(dir)
		}
		fallthrough
	default:
		if err == nil && !d.Equal(ref) {
			err = fmt.Errorf("digest %v, want %v", d, ref)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("%s run: %w", v, err)
	}
	return elapsed.Seconds(), nil
}

// bicliques is a flat in-memory copy of a run's output.
type bicliques struct {
	ids        []int32
	lLen, rLen []int32
}

func (b *bicliques) add(L, R []int32) {
	b.ids = append(append(b.ids, L...), R...)
	b.lLen = append(b.lLen, int32(len(L)))
	b.rLen = append(b.rLen, int32(len(R)))
}

func (b *bicliques) each(fn func(root int32, L, R []int32)) {
	off := 0
	for i := range b.lLen {
		L := b.ids[off : off+int(b.lLen[i])]
		off += int(b.lLen[i])
		R := b.ids[off : off+int(b.rLen[i])]
		off += int(b.rLen[i])
		root := R[0]
		for _, v := range R {
			root = min(root, v)
		}
		fn(root, L, R)
	}
}

// spoolLayers drives the spool writer and reader directly on g's output:
// Create, Emit of every biclique, SyncAll and Close, then Replay.
func spoolLayers(g graphPair, ref mbe.Digest, reps int, dir string, out map[string]float64, tr *tracer) error {
	var all bicliques
	if _, err := mbe.Enumerate(g.pub, mbe.Options{OnBiclique: all.add}); err != nil {
		return err
	}
	meta := spool.Meta{
		Version: 1, Tool: "perfbench", Algorithm: "AdaMBE", Ordering: "asc", Shards: 1,
		NU: g.in.NU(), NV: g.in.NV(), Edges: g.in.NumEdges(), GraphHash: spool.GraphSignature(g.in),
	}
	var write, sync, replay []float64
	var bytesOut int64
	for i := 0; i < reps; i++ {
		sp := tr.begin("layers", "spool.write", 0)
		w, err := spool.Create(dir, meta, spool.WriterOptions{Fsync: spool.FsyncCheckpoint})
		if err != nil {
			return err
		}
		all.each(func(root int32, L, R []int32) { w.Emit(0, root, L, R) })
		ws := sp.end()
		sp = tr.begin("layers", "spool.sync", 0)
		_, err = w.SyncAll()
		sync = append(sync, secs(sp.end()))
		if err != nil {
			w.Close()
			return err
		}
		sp = tr.begin("layers", "spool.close", 0)
		err = w.Close()
		write = append(write, secs(ws+sp.end()))
		if err != nil {
			return err
		}
		bytesOut = w.Stats().Bytes

		var d mbe.Digest
		sp = tr.begin("layers", "spool.replay", 0)
		_, err = spool.Replay(dir, func(_ int32, L, R []int32) { d.Observe(L, R) })
		replay = append(replay, secs(sp.end()))
		if err := check("spool replay", d, ref, err); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	out["spool.write_s"] = median(write)
	out["spool.sync_s"] = median(sync)
	out["spool.replay_s"] = median(replay)
	out["spool.bytes_per_biclique"] = frac(float64(bytesOut), float64(ref.Count))
	return nil
}

// parseMS is the median time to parse one of bodies with mbe.ReadKonect.
func parseMS(bodies [][]byte, tr *tracer) (float64, error) {
	var ts []float64
	for _, b := range bodies {
		sp := tr.begin("layers", "graph.parse", 0)
		_, err := mbe.ReadKonect(bytes.NewReader(b))
		ts = append(ts, ms(sp.end()))
		if err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}

// check turns an enumeration error or a digest mismatch into an error.
func check(what string, got, want mbe.Digest, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%s: digest %v, want %v", what, got, want)
	}
	return nil
}

// gcPauseMS is the total stop-the-world GC pause so far, in ms.
func gcPauseMS() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.PauseTotalNs) / 1e6
}

// Which layer probes sharedLayers adds for a workload that does not
// exercise that layer itself.
const (
	probeServer = 1 << iota
	probeDist
)

// sharedLayers measures, on one graph of the workload, the library
// layers (libLayers) and graph parsing over bodies (g's own KONECT body
// when bodies is nil), and probes the daemon and cluster paths the
// workload does not drive itself: one fresh job plus one cache hit, and
// one cluster run. It returns the metrics and the median serial time.
func sharedLayers(cfg config, tr *tracer, g graphPair, ref mbe.Digest, reps int, bodies [][]byte, probes int) (map[string]float64, float64, error) {
	dir := filepath.Join(cfg.dir, "layers")
	defer os.RemoveAll(dir)
	out, serialS, err := libLayers(g, ref, cfg.threads, reps, dir, tr)
	if err != nil {
		return nil, 0, err
	}
	if bodies == nil {
		body, err := konectBody(g.pub)
		if err != nil {
			return nil, 0, err
		}
		bodies = [][]byte{body, body, body}
	}
	if out["graph.parse_ms"], err = parseMS(bodies, tr); err != nil {
		return nil, 0, err
	}
	if probes&probeServer != 0 {
		up, err := uploadOf(g.pub, mbe.ParAdaMBE, cfg.threads)
		if err != nil {
			return nil, 0, err
		}
		d, err := bootDaemon(filepath.Join(dir, "mbed"), cfg.threads)
		if err != nil {
			return nil, 0, err
		}
		s := &svcSession{d: d, uploads: []upload{up}, clients: 1, hitEvery: 2, maxIters: 2, tr: tr}
		r := s.measure(time.Now().Add(time.Hour))
		cerr := d.close()
		if err := firstErr(errors.Join(errorsOf(r.errs)...), cerr); err != nil {
			return nil, 0, fmt.Errorf("daemon probe: %w", err)
		}
		for k, v := range serverLayers(r, tr) {
			out[k] = v
		}
	}
	if probes&probeDist != 0 {
		rig, err := bootCluster()
		if err != nil {
			return nil, 0, err
		}
		cr, err := rig.run(filepath.Join(dir, "coord"), g, ref, cfg.threads, distRanges, tr, "probe")
		if cerr := rig.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cluster probe: %w", err)
		}
		for k, v := range distLayers(cr, serialS) {
			out[k] = v
		}
	}
	return out, serialS, nil
}

func errorsOf(msgs []string) []error {
	var out []error
	for _, m := range msgs {
		out = append(out, errors.New(m))
	}
	return out
}
