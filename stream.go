package bayeslsh

import (
	"context"
	"errors"
	"iter"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/core"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/ppjoin"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/stats"
)

// Stream runs one search and yields verified result pairs as
// verification batches complete. Search is this same pipeline with
// every batch collected and reassembled in batch order; Stream hands
// batches over as they finish instead. That bounds the memory of
// result delivery — only the batches in flight are resident — which is
// what makes a pathological low-threshold join (the paper's §5 worst
// case, where result volume explodes as t drops) survivable: the
// caller sees pairs immediately and can stop at any time.
//
// The returned iterator is single-use and lazy: the pipeline starts
// when iteration starts and is torn down (all goroutines drained)
// when iteration ends, whether by exhaustion, by the consumer
// breaking out early, or by ctx being canceled. Yielded pairs arrive
// in an unspecified order; collected and sorted they equal Search's
// results exactly, for every measure and pipeline, because both run
// the same pipeline. A ctx that is already done is refused before any
// work, exactly as by SearchContext.
//
// On cancellation or failure the iterator yields one final
// (Result{}, err) — err wrapping context.Canceled or
// context.DeadlineExceeded for cancellation — after any pairs that
// were already verified; those delivered pairs are correct results,
// just not all of them (the partial-results caveat of
// docs/CONTEXTS.md).
//
// Candidate memory depends on the pipeline. The banded-LSH pipelines
// whose verifier needs no fitted prior — all of them under Cosine and
// BinaryCosine, and LSH, LSHApprox or OneBitMinhash under Jaccard —
// verify each batch of candidate rows as banding enumerates it, so
// their candidate memory is bounded by the row batches in flight. The
// AllPairs pipelines and Jaccard BayesLSH over full minhashes (whose
// prior is fitted from the whole candidate set) still materialize
// their candidates, in canonical (A, B) order as in Search, before
// verifying any: for them Stream bounds the results, not the
// candidates.
func (e *Engine) Stream(ctx context.Context, opts Options) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		o, err := e.prepare(ctx, opts)
		if err != nil {
			yield(Result{}, err)
			return
		}
		// The consumer breaking out of the range loop must tear the
		// pipeline down exactly like a cancellation, so the pipeline
		// runs under a derived context that emit can cancel.
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		broke := false
		emit := func(_ int, rs []pair.Result) error {
			for _, r := range rs {
				if !yield(Result{A: int(r.A), B: int(r.B), Sim: r.Sim}, nil) {
					broke = true
					return errStreamBreak
				}
			}
			return nil
		}
		if err := e.stream(ictx, o, &Output{}, emit); err != nil && !broke {
			yield(Result{}, ctxWrap(err))
		}
	}
}

// errStreamBreak aborts the pipeline when the consumer stops ranging;
// it never escapes Stream.
var errStreamBreak = errors.New("bayeslsh: stream consumer stopped")

// stream runs one search pipeline for resolved options — the one
// execution path behind SearchContext and Stream. emit receives the
// verified results batch by batch on the calling goroutine, each with
// its slot (the shard.StreamCtx contract), so batches concatenated in
// slot order are the pipeline's canonical result order. stream fills
// out's stage times and counters, all but Results, HashTime and Total.
func (e *Engine) stream(ctx context.Context, o Options, out *Output, emit func(slot int, rs []pair.Result) error) error {
	p, err := o.Algorithm.pipeline()
	if err != nil {
		return err
	}
	if p.gen == genLSH || p.ver != verExact {
		return e.streamTwoPhase(ctx, o, p, out, emit)
	}
	in, m := e.ds.c, toExactMeasure(e.measure)
	start := time.Now()
	switch p.gen {
	case genBruteForce:
		err = exact.SearchStream(ctx, in, m, o.Threshold, e.workers(), emit)
		out.ExactVerified = e.ds.Len() * (e.ds.Len() - 1) / 2
	case genAllPairs:
		err = allpairs.SearchMeasureStream(ctx, in, m, o.Threshold, e.workers(), e.cfg.BatchSize, emit)
	case genPPJoin:
		// Binary measures only: ppjoin refuses weighted cosine.
		err = ppjoin.SearchStream(ctx, in, m, o.Threshold, emit)
	}
	out.VerifyTime = time.Since(start)
	return err
}

// rowsFunc verifies one batch of candidate rows, returning the
// accepted pairs in row order and the batch's counters; a batch
// stopped through stop returns (nil, core.Stats{}).
type rowsFunc func(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, core.Stats)

// verifiedBatch is one verified batch on its way to emit.
type verifiedBatch struct {
	rs []pair.Result
	st core.Stats
}

// streamTwoPhase runs the candidate-generation + verification
// pipelines, both phases sharded over the engine's workers.
// Verification is one call per batch of candidate rows (rowVerifier),
// fed one of two ways:
//
//   - fused: a banded-LSH pipeline whose verifier needs no fitted prior
//     verifies each row batch inside the row phase, on the worker that
//     enumerated it, and no candidate slice is ever built;
//   - materialized: the other pipelines collect their candidates first
//     (Engine.candidates) and verify them in batches of BatchSize pairs.
//
// Either way the batch slots follow canonical (A, B) order, so the
// output is deterministic for a fixed Seed at any worker count.
func (e *Engine) streamTwoPhase(ctx context.Context, o Options, p pipeline, out *Output, emit func(slot int, rs []pair.Result) error) error {
	start := time.Now()
	workers := e.workers()
	var run func(verify rowsFunc, sink func(int, verifiedBatch) error) error
	prior := stats.Beta{Alpha: 1, Beta: 1} // fitted below where the verifier takes one
	if p.gen == genLSH {
		_, _, out.FalseNegativeBound = e.lshShape(o)
	}
	if p.gen == genLSH && !e.needsPrior(o) {
		b, err := e.lshBanding(ctx, o, true)
		if err != nil {
			return err
		}
		keep := e.nonEmpty()
		run = func(verify rowsFunc, sink func(int, verifiedBatch) error) error {
			return lshindex.StreamRows(ctx, b, workers, func(rows pair.Rows, stop *shard.Stopper) verifiedBatch {
				rs, st := verify(keep(rows), stop)
				return verifiedBatch{rs, st}
			}, sink)
		}
	} else {
		cands, err := e.candidates(ctx, o, true)
		if err != nil {
			return err
		}
		prior = e.fitPrior(o, cands)
		run = func(verify rowsFunc, sink func(int, verifiedBatch) error) error {
			stop := shard.NewStopper(ctx)
			defer stop.Close()
			return shard.StreamCtx(ctx, len(cands), workers, e.cfg.BatchSize, func(lo, hi int) verifiedBatch {
				rs, st := verify(pair.RowsOf(cands[lo:hi]), stop)
				return verifiedBatch{rs, st}
			}, sink)
		}
	}
	out.CandGenTime = time.Since(start)

	verifyStart := time.Now()
	defer func() { out.VerifyTime = time.Since(verifyStart) }()
	verify, err := e.rowVerifier(ctx, o, p, prior)
	if err != nil {
		return err
	}
	var st core.Stats
	err = run(verify, func(slot int, b verifiedBatch) error {
		st.Add(b.st)
		return emit(slot, b.rs)
	})
	out.Candidates = st.Candidates
	out.Pruned = st.Pruned
	out.ExactVerified = st.ExactVerified
	out.HashesCompared = st.HashesCompared
	out.SurvivorsByRound = st.SurvivorsByRound
	return err
}

// rowVerifier returns p's verifier as one call per batch of candidate
// rows; prior is ignored by verifiers that take none.
func (e *Engine) rowVerifier(ctx context.Context, o Options, p pipeline, prior stats.Beta) (rowsFunc, error) {
	switch p.ver {
	case verExact:
		return scoreRows(o.Threshold, e.exactSim, core.Stats{ExactVerified: 1}), nil
	case verApprox:
		est, used, err := e.approxEstimator(ctx, o)
		if err != nil {
			return nil, err
		}
		return scoreRows(o.Threshold, est, core.Stats{HashesCompared: int64(used)}), nil
	}

	v, err := e.bayesVerifier(ctx, o, prior)
	if err != nil {
		return nil, err
	}
	switch {
	case p.ver == verLite:
		return func(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, core.Stats) {
			return v.VerifyRowsLite(rows, o.LiteHashes, e.exactSim, stop)
		}, nil
	case p.checksAccepted():
		return func(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, core.Stats) {
			rs, st := v.VerifyRows(rows, stop)
			st.ExactVerified += len(rs)
			return dropSubThreshold(rs, o.Threshold, func(r pair.Result) float64 { return e.exactSim(r.A, r.B) }), st
		}, nil
	}
	return v.VerifyRows, nil
}

// scoreRows scores every candidate pair by sim — exact or the §3
// estimate — and keeps it at or above t. perPair is one pair's share
// of the cost counters.
func scoreRows(t float64, sim func(a, b int32) float64, perPair core.Stats) rowsFunc {
	return func(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, core.Stats) {
		var rs []pair.Result
		n := 0
		for a, bs := range rows {
			for _, b := range bs {
				if stop.Stopped() {
					return nil, core.Stats{}
				}
				if s := sim(a, b); s >= t {
					rs = append(rs, pair.Result{A: a, B: b, Sim: s})
				}
			}
			n += len(bs)
		}
		return rs, core.Stats{Candidates: n, ExactVerified: n * perPair.ExactVerified, HashesCompared: int64(n) * perPair.HashesCompared}
	}
}
