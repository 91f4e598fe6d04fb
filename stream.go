package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/core"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/ppjoin"
	"bayeslsh/internal/shard"
)

// Stream runs one search and yields verified result pairs as
// verification batches complete, instead of accumulating the full
// result set the way Search does. That bounds the memory of result
// delivery — only the batches in flight are resident — which is what
// makes a pathological low-threshold join (the paper's §5 worst case,
// where result volume explodes as t drops) survivable: the caller
// sees pairs immediately and can stop at any time.
//
// The returned iterator is single-use and lazy: the pipeline starts
// when iteration starts and is torn down (all goroutines drained)
// when iteration ends, whether by exhaustion, by the consumer
// breaking out early, or by ctx being canceled. Yielded pairs arrive
// in an unspecified order; collected and sorted they equal
// Search's results exactly, for every measure and pipeline, because
// per-pair verification decisions are pure functions of the pair.
// On cancellation or failure the iterator yields one final
// (Result{}, err) — err wrapping context.Canceled or
// context.DeadlineExceeded for cancellation — after any pairs that
// were already verified; those delivered pairs are correct results,
// just not all of them (the partial-results caveat of
// docs/CONTEXTS.md).
//
// The candidate phase still materializes the candidate set (sorted,
// as in Search): candidates are pairs that *might* match and cannot
// be verified before they are enumerated. Stream bounds the results,
// not the candidates.
func (e *Engine) Stream(ctx context.Context, opts Options) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		o, err := opts.withDefaults(e.measure)
		if err != nil {
			yield(Result{}, err)
			return
		}
		if o.AutoPipeline {
			o, _ = e.resolveAuto(o, false)
		}
		// The consumer breaking out of the range loop must tear the
		// pipeline down exactly like a cancellation, so the pipeline
		// runs under a derived context that emit can cancel.
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		broke := false
		emit := func(rs []pair.Result) error {
			for _, r := range rs {
				if !yield(Result{A: int(r.A), B: int(r.B), Sim: r.Sim}, nil) {
					broke = true
					return errStreamBreak
				}
			}
			return nil
		}
		if err := e.stream(ictx, o, emit); err != nil && !broke {
			yield(Result{}, ctxWrap(err))
		}
	}
}

// errStreamBreak aborts the pipeline when the consumer stops ranging;
// it never escapes Stream.
var errStreamBreak = errors.New("bayeslsh: stream consumer stopped")

// stream dispatches one streaming search. emit receives batches of
// verified results on the calling goroutine (the shard.StreamCtx
// contract); errors are raw ctx errors or emit's own.
func (e *Engine) stream(ctx context.Context, o Options, emit func([]pair.Result) error) error {
	workers, batch := e.workers(), e.cfg.BatchSize
	switch o.Algorithm {
	case BruteForce:
		return exact.SearchStream(ctx, e.workInput(), toExactMeasure(e.measure), o.Threshold, workers, emit)

	case AllPairs:
		return allpairs.SearchMeasureStream(ctx, e.workInput(), toExactMeasure(e.measure), o.Threshold, workers, batch, emit)

	case PPJoin:
		if e.measure == Cosine {
			return fmt.Errorf("bayeslsh: PPJoin supports binary measures only")
		}
		return ppjoin.SearchStream(ctx, e.workInput(), toExactMeasure(e.measure), o.Threshold, emit)

	case LSH, LSHApprox, AllPairsBayesLSH, AllPairsBayesLSHLite, LSHBayesLSH, LSHBayesLSHLite:
		return e.streamTwoPhase(ctx, o, emit)

	default:
		return fmt.Errorf("bayeslsh: unknown algorithm %v", o.Algorithm)
	}
}

// streamTwoPhase runs candidate generation exactly as the batch
// pipeline does (same sorted candidate stream, same prior fitting),
// then streams the verification phase batch by batch.
func (e *Engine) streamTwoPhase(ctx context.Context, o Options, emit func([]pair.Result) error) error {
	cands, err := e.candidates(ctx, o)
	if err != nil {
		return err
	}
	pair.SortPairs(cands)

	workers, batch := e.workers(), e.cfg.BatchSize
	switch o.Algorithm {
	case LSH:
		return exact.VerifyStream(ctx, e.workInput(), toExactMeasure(e.measure), o.Threshold, cands, workers, batch, emit)

	case LSHApprox:
		return e.approxStream(ctx, o, cands, emit)

	case AllPairsBayesLSH, LSHBayesLSH:
		v, err := e.bayesVerifier(ctx, o, cands)
		if err != nil {
			return err
		}
		if o.Algorithm == AllPairsBayesLSH {
			// Per-batch twin of the batch pipeline's dropSubThreshold:
			// the filter is per-pair, so applying it batch by batch
			// keeps streamed results strictly equal to batch results.
			inner := emit
			emit = func(rs []pair.Result) error {
				var st core.Stats
				return inner(e.dropSubThreshold(rs, o.Threshold, &st))
			}
		}
		return v.VerifyStream(ctx, cands, workers, batch, emit)

	default: // AllPairsBayesLSHLite, LSHBayesLSHLite
		v, err := e.bayesVerifier(ctx, o, cands)
		if err != nil {
			return err
		}
		return v.VerifyLiteStream(ctx, cands, o.LiteHashes, e.exactSim, workers, batch, emit)
	}
}

// approxStream is the streaming form of approxVerifyCtx.
func (e *Engine) approxStream(ctx context.Context, o Options, cands []pair.Pair, emit func([]pair.Result) error) error {
	est, _, err := e.approxEstimator(ctx, o)
	if err != nil {
		return err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return shard.StreamCtx(ctx, len(cands), e.workers(), e.cfg.BatchSize, func(lo, hi int) []pair.Result {
		return estimateBatch(cands[lo:hi], est, o.Threshold, stop)
	}, emit)
}
