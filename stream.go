package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/ppjoin"
	"bayeslsh/internal/shard"
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
// The candidate phase still materializes the candidate set (in
// canonical (A, B) order, as in Search): candidates are pairs that
// *might* match and cannot be verified before they are enumerated.
// Stream bounds the results, not the candidates.
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
// its slot: the batch's index within the pipeline's one emitting stage
// (the shard.StreamCtx contract), so batches concatenated in slot
// order are the pipeline's canonical result order. stream fills out's
// stage times and counters (everything but Results, HashTime and
// Total). Errors are raw ctx errors, emit's own, or the pipeline's.
func (e *Engine) stream(ctx context.Context, o Options, out *Output, emit func(slot int, rs []pair.Result) error) error {
	in, m := e.workInput(), toExactMeasure(e.measure)
	start := time.Now()
	var err error
	switch o.Algorithm {
	case BruteForce:
		err = exact.SearchStream(ctx, in, m, o.Threshold, e.workers(), emit)
		out.ExactVerified = e.ds.Len() * (e.ds.Len() - 1) / 2

	case AllPairs:
		err = allpairs.SearchMeasureStream(ctx, in, m, o.Threshold, e.workers(), e.cfg.BatchSize, emit)

	case PPJoin:
		if e.measure == Cosine {
			return fmt.Errorf("bayeslsh: PPJoin supports binary measures only")
		}
		err = ppjoin.SearchStream(ctx, in, m, o.Threshold, emit)

	case LSH, LSHApprox, AllPairsBayesLSH, AllPairsBayesLSHLite, LSHBayesLSH, LSHBayesLSHLite:
		return e.streamTwoPhase(ctx, o, out, emit)

	default:
		return fmt.Errorf("bayeslsh: unknown algorithm %v", o.Algorithm)
	}
	out.VerifyTime = time.Since(start)
	return err
}

// streamTwoPhase runs the candidate-generation + verification
// pipelines. Both phases shard over the engine's worker pool when
// EngineConfig.Parallelism exceeds one. Candidates arrive in canonical
// (A, B) order (Engine.candidates' contract), so everything downstream
// of generation (prior sampling, verification order, output order) is
// deterministic for a fixed Seed regardless of worker count.
// Verification then streams batch by batch, with batch slots in
// candidate order.
func (e *Engine) streamTwoPhase(ctx context.Context, o Options, out *Output, emit func(slot int, rs []pair.Result) error) error {
	// Phase 1: candidates.
	start := time.Now()
	cands, err := e.candidates(ctx, o)
	if err != nil {
		return err
	}
	out.CandGenTime = time.Since(start)
	out.Candidates = len(cands)

	// Phase 2: verification.
	verifyStart := time.Now()
	defer func() { out.VerifyTime = time.Since(verifyStart) }()
	workers, batch := e.workers(), e.cfg.BatchSize
	switch o.Algorithm {
	case LSH:
		out.ExactVerified = len(cands)
		return exact.VerifyStream(ctx, e.workInput(), toExactMeasure(e.measure), o.Threshold, cands, workers, batch, emit)

	case LSHApprox:
		est, used, err := e.approxEstimator(ctx, o)
		if err != nil {
			return err
		}
		out.HashesCompared = int64(len(cands)) * int64(used)
		stop := shard.NewStopper(ctx)
		defer stop.Close()
		return shard.StreamCtx(ctx, len(cands), workers, batch, func(lo, hi int) []pair.Result {
			var rs []pair.Result
			for _, p := range cands[lo:hi] {
				if stop.Stopped() {
					return nil // a stopped batch's output is discarded
				}
				if s := est(p); s >= o.Threshold {
					rs = append(rs, pair.Result{A: p.A, B: p.B, Sim: s})
				}
			}
			return rs
		}, emit)

	case AllPairsBayesLSH, LSHBayesLSH:
		v, err := e.bayesVerifier(ctx, o, cands)
		if err != nil {
			return err
		}
		checked := 0
		if o.Algorithm == AllPairsBayesLSH {
			// dropSubThreshold is per-pair, so applying it batch by
			// batch filters exactly the pairs a whole-set pass would.
			inner := emit
			emit = func(slot int, rs []pair.Result) error {
				return inner(slot, e.dropSubThreshold(rs, o.Threshold, &checked))
			}
		}
		st, err := v.VerifyStream(ctx, cands, workers, batch, emit)
		st.ExactVerified += checked
		fillStats(out, st)
		return err

	default: // AllPairsBayesLSHLite, LSHBayesLSHLite
		v, err := e.bayesVerifier(ctx, o, cands)
		if err != nil {
			return err
		}
		st, err := v.VerifyLiteStream(ctx, cands, o.LiteHashes, e.exactSim, workers, batch, emit)
		fillStats(out, st)
		return err
	}
}
