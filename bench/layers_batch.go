package main

import (
	"context"
	"sync/atomic"
	"time"

	"bayeslsh"
	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/core"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
)

// The search defaults of bayeslsh.Options (§5.1 of the paper), which
// the layer replay has to spell out because it calls the layers
// directly. The replay's output is compared with Engine.Search's on
// every traced run, so a drifted default fails the run.
const (
	optEpsilon     = 0.03
	optK           = 32
	optBatch       = 1024
	optPriorSample = 1000
	cosBandK       = 8
	cosMaxHashes   = 2048
	cosSigBits     = 2048
	cosBlockBits   = 128
	jacMaxHashes   = 512
	jacMinHashes   = 512
	jacMinBlock    = 32
	jacLiteHashes  = 64
)

// replay drives the two pipelines the batch workloads use — banded
// LSH + BayesLSH over cosine, AllPairs + BayesLSH-Lite over Jaccard —
// layer by layer, the way Engine.searchTwoPhase does, with a span
// around each call into a layer.
type replay struct {
	spec  batchSpec
	input *vector.Collection // what the engine hands AllPairs and exact similarity
	work  *vector.Collection // what the engine hashes

	bits *sighash.Store
	mins *minhash.Store
}

func newReplay(spec batchSpec, in *batchInputs) *replay {
	r := &replay{spec: spec}
	if spec.measure == bayeslsh.Cosine {
		r.input = in.raw.TfIdf().Normalize()
		r.work = r.input
	} else {
		r.input = in.raw.Binarize()
		r.work = r.input.Binarize().Normalize()
	}
	r.reset()
	return r
}

// reset drops every cached signature, as a fresh Engine would.
func (r *replay) reset() {
	if r.spec.measure == bayeslsh.Cosine {
		r.bits = sighash.NewStore(r.work, sighash.NewBlockFamily(r.work.Dim, cosSigBits, cosBlockBits, rng.Derive(engineSeed, 1)))
	} else {
		r.mins = minhash.NewStore(r.work, minhash.NewFamily(jacMinHashes, rng.Derive(engineSeed, 2)), jacMinBlock)
	}
}

// layerCounts are the work counts of one replayed operation.
type layerCounts struct {
	lshCandidates, lshTables int
	apCandidates             int
	core                     core.Stats
	exactCalls, exactUseful  int64
}

func (c *layerCounts) add(o layerCounts) {
	c.lshCandidates += o.lshCandidates
	c.lshTables += o.lshTables
	c.apCandidates += o.apCandidates
	addCoreStats(&c.core, o.core)
	c.exactCalls += o.exactCalls
	c.exactUseful += o.exactUseful
}

// addCoreStats sums the counters of several verification runs; of the
// per-round survivors only round 1 is kept, which is all that is
// reported.
func addCoreStats(sum *core.Stats, s core.Stats) {
	sum.Candidates += s.Candidates
	sum.Pruned += s.Pruned
	sum.Accepted += s.Accepted
	sum.HashesCompared += s.HashesCompared
	sum.InferenceCalls += s.InferenceCalls
	sum.CacheHits += s.CacheHits
	if len(s.SurvivorsByRound) > 0 {
		if len(sum.SurvivorsByRound) == 0 {
			sum.SurvivorsByRound = []int{0}
		}
		sum.SurvivorsByRound[0] += s.SurvivorsByRound[0]
	}
}

// search replays one search at threshold t under the parent span.
func (r *replay) search(ctx context.Context, tr *tracer, parent, req int, t float64) ([]pair.Result, layerCounts, error) {
	if r.spec.measure == bayeslsh.Cosine {
		return r.searchCosineLSH(ctx, tr, parent, req, t)
	}
	return r.searchJaccardAPLite(ctx, tr, parent, req, t)
}

func (r *replay) searchCosineLSH(ctx context.Context, tr *tracer, parent, req int, t float64) ([]pair.Result, layerCounts, error) {
	var n layerCounts
	st := r.bits
	l := min(lshindex.NumTables(sighash.CosineToR(t), cosBandK, optEpsilon), st.MaxBits()/cosBandK)
	n.lshTables = l

	s := tr.begin(parent, req, "sighash", "fill")
	err := st.EnsureAllCtx(ctx, cosBandK*l, workers)
	tr.end(s)
	if err != nil {
		return nil, n, err
	}

	s = tr.begin(parent, req, "lshindex", "candidates")
	cands, err := lshindex.CandidatesBitsCtx(ctx, st.Sigs(), cosBandK, l, workers)
	tr.end(s)
	if err != nil {
		return nil, n, err
	}
	n.lshCandidates = len(cands)

	s = tr.begin(parent, req, "index", "sort")
	pair.SortPairs(cands)
	tr.end(s)

	s = tr.begin(parent, req, "core", "verify")
	hashed := st.Elapsed()
	v, err := core.NewCosine(st.Sigs(), st.MaxBits(), core.Params{
		Threshold: t, Epsilon: optEpsilon, Delta: delta, Gamma: gamma, K: optK,
		MaxHashes: min(cosMaxHashes, st.MaxBits()), Ensure: st.Ensure,
	})
	if err != nil {
		return nil, n, err
	}
	rs, stats, err := v.VerifyParallelCtx(ctx, cands, workers, optBatch)
	tr.end(s)
	if err != nil {
		return nil, n, err
	}
	// Verification fills deeper signature blocks on demand; the store
	// sums that time over both workers.
	tr.derived(s, req, "sighash", "fill", (st.Elapsed()-hashed)/workers)
	n.core = stats
	return rs, n, nil
}

func (r *replay) searchJaccardAPLite(ctx context.Context, tr *tracer, parent, req int, t float64) ([]pair.Result, layerCounts, error) {
	var n layerCounts
	st := r.mins

	s := tr.begin(parent, req, "allpairs", "candidates")
	cands, err := allpairs.CandidatesMeasureCtx(ctx, r.input, exact.Jaccard, t, workers)
	tr.end(s)
	if err != nil {
		return nil, n, err
	}
	n.apCandidates = len(cands)

	s = tr.begin(parent, req, "index", "sort")
	pair.SortPairs(cands)
	tr.end(s)

	s = tr.begin(parent, req, "core", "verify")
	hashed := st.Elapsed()
	prior := core.FitJaccardPrior(r.work, cands, optPriorSample, rng.Derive(engineSeed, 3))
	v, err := core.NewJaccard(st.Sigs(), prior, core.Params{
		Threshold: t, Epsilon: optEpsilon, Delta: delta, Gamma: gamma, K: optK,
		MaxHashes: min(jacMaxHashes, st.MaxHashes()), Ensure: st.Ensure,
	})
	if err != nil {
		return nil, n, err
	}
	var simNS, simCalls, simUseful atomic.Int64
	sim := func(a, b int32) float64 {
		start := time.Now()
		x := exact.Jaccard.Sim(r.input.Vecs[a], r.input.Vecs[b])
		simNS.Add(int64(time.Since(start)))
		simCalls.Add(1)
		if x >= t {
			simUseful.Add(1)
		}
		return x
	}
	rs, stats, err := v.VerifyLiteParallelCtx(ctx, cands, jacLiteHashes, sim, workers, optBatch)
	tr.end(s)
	if err != nil {
		return nil, n, err
	}
	tr.derived(s, req, "minhash", "fill", (st.Elapsed()-hashed)/workers)
	tr.derived(s, req, "exact", "sim", time.Duration(simNS.Load())/workers)
	n.core = stats
	n.exactCalls, n.exactUseful = simCalls.Load(), simUseful.Load()
	return rs, n, nil
}

// op replays one timed operation (a cold search or a sweep) as request
// req and returns the per-threshold results and summed counts.
func (r *replay) op(ctx context.Context, tr *tracer, req int) ([][]pair.Result, layerCounts, time.Duration, error) {
	if !r.spec.sweep() {
		r.reset()
	}
	start := time.Now()
	root := tr.begin(0, req, "bench", "op")
	var (
		all   [][]pair.Result
		total layerCounts
	)
	for _, t := range r.spec.thresholds {
		rs, n, err := r.search(ctx, tr, root, req, t)
		if err != nil {
			return nil, total, 0, err
		}
		all = append(all, rs)
		total.add(n)
	}
	tr.end(root)
	return all, total, time.Since(start), nil
}

// filled sums the signature depth materialized over the corpus.
func (r *replay) filled() (bits, hashes float64) {
	for id := range r.work.Vecs {
		if r.bits != nil {
			bits += float64(r.bits.FilledBits(int32(id)))
		}
		if r.mins != nil {
			hashes += float64(r.mins.FilledHashes(int32(id)))
		}
	}
	return bits, hashes
}

// traceBatch is the traced run of a batch workload: it alternates the
// untraced public-API operation (the end-to-end denominator) with the
// traced layer replay, checks that both give the same pairs, and
// reports each layer's self time per operation.
func traceBatch(rc *runCtx, spec batchSpec, in *batchInputs) (*result, error) {
	res := newResult(perLayer)
	ds, eng, _, err := batchSetup(rc, spec, in)
	if err != nil {
		return nil, err
	}
	rp := newReplay(spec, in)
	tr := newTracer()
	if spec.sweep() {
		// Warm the replay's signatures the way set-up warmed the engine's.
		if _, _, err := rp.search(rc.ctx, nil, 0, 0, spec.warm); err != nil {
			return nil, err
		}
	}

	var (
		plain, traced []float64
		counts        layerCounts
		outs          []*bayeslsh.Output
		replayed      [][]pair.Result
	)
	deadline := time.Now().Add(rc.seconds)
	for req := 1; req <= 2 || time.Now().Before(deadline); req++ {
		start := time.Now()
		if outs, err = batchOp(rc, spec, ds, eng); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		var d time.Duration
		if replayed, counts, d, err = rp.op(rc.ctx, tr, req); err != nil {
			return nil, err
		}
		traced = append(traced, d.Seconds())
		res.Attempted++
	}
	for i, o := range outs {
		if !sameResults(o.Results, replayed[i]) {
			res.Failed++
			res.fail("t=%v: layer replay found %d pairs, Engine.Search %d, or they differ: the replay no longer mirrors the engine", spec.thresholds[i], len(replayed[i]), len(o.Results))
		}
	}

	// Self time per layer and operation: median over the traced ops.
	perReq := selfByReq(tr.spans)
	layer := func(key string) float64 {
		var xs []float64
		for _, m := range perReq[1:] { // requests are numbered from 1
			xs = append(xs, m[key].Seconds())
		}
		return median(xs)
	}
	e2e := median(plain)
	sum := 0.0
	for _, key := range []string{"sighash.fill", "minhash.fill", "lshindex.candidates", "allpairs.candidates", "index.sort", "core.verify", "exact.sim"} {
		sum += layer(key)
	}
	res.set("sighash.fill_s", layer("sighash.fill"))
	res.set("minhash.fill_s", layer("minhash.fill"))
	res.set("lshindex.candidates_s", layer("lshindex.candidates"))
	res.set("allpairs.candidates_s", layer("allpairs.candidates"))
	res.set("index.sort_s", layer("index.sort"))
	res.set("core.verify_s", layer("core.verify"))
	res.set("exact.sim_s", layer("exact.sim"))
	res.set("layers.sum_over_e2e", sum/e2e)
	res.set("trace.overhead_frac", median(traced)/e2e-1)
	res.note("layers.sum_over_e2e", "layers %.4fs / Engine.Search %.4fs, %d ops each", sum, e2e, len(plain))

	bits, hashes := rp.filled()
	res.set("sighash.bits_filled", bits)
	res.set("minhash.hashes_filled", hashes)
	res.set("lshindex.candidates", float64(counts.lshCandidates))
	res.set("lshindex.tables", float64(counts.lshTables))
	res.set("allpairs.candidates", float64(counts.apCandidates))
	setCoreCounts(res, counts.core)
	res.set("exact.sim_calls", float64(counts.exactCalls))
	if counts.exactCalls > 0 {
		res.set("exact.useful_ratio", float64(counts.exactUseful)/float64(counts.exactCalls))
	}
	if spec.measure == bayeslsh.Jaccard {
		traceJaccardProbes(rc, rp, res)
	}

	return res, rc.saveTrace(tr)
}

// setCoreCounts reports a verifier's Stats as the core.* counts.
func setCoreCounts(res *result, st core.Stats) {
	res.set("core.hashes_compared", float64(st.HashesCompared))
	res.set("core.pruned", float64(st.Pruned))
	res.set("core.accepted", float64(st.Accepted))
	res.set("core.inference_calls", float64(st.InferenceCalls))
	res.set("core.cache_hits", float64(st.CacheHits))
	if st.Candidates > 0 {
		res.set("core.hashes_per_cand", float64(st.HashesCompared)/float64(st.Candidates))
		if len(st.SurvivorsByRound) > 0 {
			res.set("core.prune_ratio_r1", 1-float64(st.SurvivorsByRound[0])/float64(st.Candidates))
		}
	}
}

// traceJaccardProbes times the query-side calls of the two layers no
// serving workload reaches (every serve_* index is cosine LSH): the
// AllPairs inverted index build and probe, and a minhash query
// signature, over the first 500 corpus vectors.
func traceJaccardProbes(rc *runCtx, rp *replay, res *result) {
	t := rp.spec.thresholds[0]
	start := time.Now()
	ix, err := allpairs.BuildIndexMeasure(rp.input, exact.Jaccard, t)
	if err != nil {
		res.fail("allpairs.BuildIndexMeasure: %v", err)
		return
	}
	res.set("allpairs.build_s", time.Since(start).Seconds())
	const probes = 500
	var probe, sig []float64
	ids := 0
	fam := rp.mins.Family()
	for _, v := range rp.work.Vecs[:probes] {
		start = time.Now()
		ids += len(ix.Probe(v))
		probe = append(probe, us(time.Since(start)))
		start = time.Now()
		fam.SignatureN(v, jacMaxHashes)
		sig = append(sig, us(time.Since(start)))
	}
	res.set("allpairs.probe_us", median(probe))
	res.set("allpairs.probe_ids", float64(ids)/probes)
	res.set("minhash.query_sig_us", median(sig))
	res.note("allpairs.probe_us", "median of %d probes", probes)
}

// sameResults reports whether the engine's output and the replay's
// hold the same pairs with bit-identical similarities, in order.
func sameResults(a []bayeslsh.Result, b []pair.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != int(b[i].A) || a[i].B != int(b[i].B) || a[i].Sim != b[i].Sim {
			return false
		}
	}
	return true
}
