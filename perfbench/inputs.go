package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	mbe "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// ghConfig and ghSeed are the GH entry of the dataset registry
// (internal/datasets); TestGHConfigMatchesRegistry keeps them in step.
var ghConfig = gen.AffiliationConfig{
	NU: 7000, NV: 2200, Communities: 1300,
	MeanU: 15, MeanV: 7, Density: 0.8, NoiseEdges: 5000,
}

const ghSeed = 112

// ghBicliques is the number of maximal bicliques of the GH graph and of
// every relabeled copy of it.
const ghBicliques = 350112

// ufShape is the registry's UF entry: a uniform graph of this size.
var ufShape = struct{ NU, NV, M int }{899, 522, 7089}

// graphPair is one input graph in the public form the library and the
// daemon take and in the internal form dist workers take.
type graphPair struct {
	pub *mbe.Graph
	in  *graph.Bipartite
}

// makeDense builds the registry's GH graph and relabels both sides with
// a permutation drawn from seed. Every seed yields an isomorphic copy of
// the same graph (350,112 maximal bicliques) under new vertex ids, so
// the ordering's tie-breaks, the memory layout and every digest change
// with the seed while the amount of work does not; across generator
// seeds the biclique count alone varies by about ±10%.
func makeDense(seed int64, scale int) (graphPair, error) {
	cfg := ghConfig
	if scale > 1 {
		cfg.NU /= scale
		cfg.NV /= scale
		cfg.Communities /= scale
		cfg.NoiseEdges /= scale
	}
	base := gen.Affiliation(ghSeed, cfg).Orient()
	rng := rand.New(rand.NewSource(seed))
	pu, pv := rng.Perm(base.NU()), rng.Perm(base.NV())
	edges := base.Edges()
	for i, e := range edges {
		edges[i] = graph.Edge{U: int32(pu[e.U]), V: int32(pv[e.V])}
	}
	in, err := graph.FromEdges(base.NU(), base.NV(), edges)
	if err != nil {
		return graphPair{}, err
	}
	pub, err := mbe.FromEdges(base.NU(), base.NV(), edges)
	if err != nil {
		return graphPair{}, err
	}
	return graphPair{pub: pub, in: in}, nil
}

// konectBody serializes g as the KONECT edge list a client uploads.
func konectBody(g *mbe.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pairFromBody parses a KONECT body into both forms.
func pairFromBody(body []byte) (graphPair, error) {
	pub, err := mbe.ReadKonect(bytes.NewReader(body))
	if err != nil {
		return graphPair{}, err
	}
	in, err := graph.ReadKonect(bytes.NewReader(body))
	return graphPair{pub: pub, in: in}, err
}

// upload is one graph a daemon client uploads, with the digest of its
// maximal bicliques. ReadKonect compacts and re-orients ids, so the
// reference is taken on the graph parsed back from the exact body.
type upload struct {
	body []byte
	ref  mbe.Digest
}

// uploadOf makes g an upload whose reference comes from engine alg.
func uploadOf(g *mbe.Graph, alg mbe.Algorithm, threads int) (upload, error) {
	body, err := konectBody(g)
	if err != nil {
		return upload{}, err
	}
	parsed, err := mbe.ReadKonect(bytes.NewReader(body))
	if err != nil {
		return upload{}, err
	}
	ref, err := digestOf(parsed, mbe.Options{Algorithm: alg, Threads: threads})
	return upload{body: body, ref: ref}, err
}

// uploadSeeds draws the generator seed of each of n uploads from seed.
func uploadSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// makeUploads generates a UF-sized graph from each seed with its BBK
// reference digest, spread over the machine's cores. It also returns the
// time spent in the generator, summed over graphs.
func makeUploads(seeds []int64) ([]upload, time.Duration, error) {
	n := len(seeds)
	out := make([]upload, n)
	gens := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				g := mbe.GenerateUniform(seeds[i], ufShape.NU, ufShape.NV, ufShape.M).Orient()
				gens[i] = time.Since(t0)
				out[i], errs[i] = uploadOf(g, mbe.BBK, 1)
			}
		}()
	}
	for i := range out {
		work <- i
	}
	close(work)
	wg.Wait()
	var gen time.Duration
	for i, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		gen += gens[i]
	}
	return out, gen, nil
}

// digestOf enumerates g with opts and digests the output.
func digestOf(g *mbe.Graph, opts mbe.Options) (mbe.Digest, error) {
	var d mbe.Digest
	opts.OnBiclique = d.Observe
	res, err := mbe.Enumerate(g, opts)
	if err != nil {
		return d, err
	}
	if res.StopReason != mbe.StopNone {
		return d, fmt.Errorf("enumeration stopped early: %v", res.StopReason)
	}
	return d, nil
}
