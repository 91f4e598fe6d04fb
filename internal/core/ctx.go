package core

import (
	"context"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// Batch verification drivers. The round loop polls a shard.Stopper
// between rounds (see verifyOne), the batch dispatch stops at the
// first done check (shard.RunCtx/StreamCtx), and partial work is
// discarded once cancellation is observed — so the collecting entry
// points either return the complete output or (nil, Stats{},
// ctx.Err()), never something in between.
//
// Each batch accumulates its own result slice and Stats, merged in
// batch order afterwards, so the output is identical for any worker
// count and batch size (per-pair decisions are pure functions of the
// pair's hash matches). Only the CacheHits/InferenceCalls split
// depends on scheduling: a decision another worker has not yet cached
// is recomputed — harmlessly, to the same value.

// collectBatches runs body over the candidates in batches of batch
// pairs on workers goroutines and merges the per-batch outputs.
func collectBatches(ctx context.Context, cands []pair.Pair, workers, batch int, body batchFunc) ([]pair.Result, Stats, error) {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	outs := make([][]pair.Result, shard.Count(len(cands), batch))
	stats := make([]Stats, len(outs))
	err := shard.RunCtx(ctx, len(cands), workers, batch, func(lo, hi, slot int) {
		outs[slot], stats[slot] = body(cands[lo:hi], stop)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out, st := mergeBatches(outs, stats)
	st.Candidates = len(cands)
	st.Accepted = len(out)
	return out, st, nil
}

// streamBatches runs body over the candidates like collectBatches but
// delivers each batch's accepted results to emit as the batch
// completes (the shard.StreamCtx contract): results leave through emit
// instead of accumulating, which is what bounds the memory of a huge
// join.
func streamBatches(ctx context.Context, cands []pair.Pair, workers, batch int, body batchFunc, emit func([]pair.Result) error) error {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return shard.StreamCtx(ctx, len(cands), workers, batch, func(lo, hi int) []pair.Result {
		out, _ := body(cands[lo:hi], stop)
		return out
	}, emit)
}

// VerifyParallelCtx runs BayesLSH (Algorithm 1) over the candidates.
func (kr *kernel) VerifyParallelCtx(ctx context.Context, cands []pair.Pair, workers, batch int) ([]pair.Result, Stats, error) {
	return collectBatches(ctx, cands, workers, batch, kr.verifyBatch)
}

// VerifyLiteParallelCtx runs BayesLSH-Lite (Algorithm 2) over the
// candidates.
func (kr *kernel) VerifyLiteParallelCtx(ctx context.Context, cands []pair.Pair, h int, sim ExactSimFunc, workers, batch int) ([]pair.Result, Stats, error) {
	return collectBatches(ctx, cands, workers, batch, kr.liteBatch(h, sim))
}

// VerifyStream streams BayesLSH verification batch by batch.
func (kr *kernel) VerifyStream(ctx context.Context, cands []pair.Pair, workers, batch int, emit func([]pair.Result) error) error {
	return streamBatches(ctx, cands, workers, batch, kr.verifyBatch, emit)
}

// VerifyLiteStream streams BayesLSH-Lite verification batch by batch.
func (kr *kernel) VerifyLiteStream(ctx context.Context, cands []pair.Pair, h int, sim ExactSimFunc, workers, batch int, emit func([]pair.Result) error) error {
	return streamBatches(ctx, cands, workers, batch, kr.liteBatch(h, sim), emit)
}
