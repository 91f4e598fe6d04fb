package core

import (
	"context"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// The pair-slice verification driver, for candidate sets that are
// materialized (AllPairs, and banded LSH where a Jaccard prior must be
// fitted from the whole set first). The round loop polls a
// shard.Stopper between rounds (see kernel.run), the batch dispatch
// stops at the first done check (shard.StreamCtx), and partial work is
// discarded once cancellation is observed — so a canceled run returns
// (Stats{}, ctx.Err()), never something in between. Only the
// CacheHits/InferenceCalls split depends on scheduling: a decision
// another worker has not yet cached is recomputed — harmlessly, to the
// same value.

// streamBatches runs body over the candidates in batches of batch
// pairs on workers goroutines, each batch cut into rows at every change
// of A (pair.RowsOf), and delivers each batch's accepted results to
// emit with its slot as the batch completes (the shard.StreamCtx
// contract). Per-batch Stats are summed on the calling goroutine, so
// the totals do not depend on completion order.
func streamBatches(ctx context.Context, cands []pair.Pair, workers, batch int, body func(pair.Rows, *shard.Stopper) ([]pair.Result, Stats), emit func(slot int, rs []pair.Result) error) (Stats, error) {
	type batchOut struct {
		rs []pair.Result
		st Stats
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	var st Stats
	err := shard.StreamCtx(ctx, len(cands), workers, batch, func(lo, hi int) batchOut {
		rs, bst := body(pair.RowsOf(cands[lo:hi]), stop)
		return batchOut{rs, bst}
	}, func(slot int, b batchOut) error {
		st.Add(b.st)
		return emit(slot, b.rs)
	})
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// VerifyStream runs BayesLSH (Algorithm 1) over the candidates.
func (kr *kernel) VerifyStream(ctx context.Context, cands []pair.Pair, workers, batch int, emit func(slot int, rs []pair.Result) error) (Stats, error) {
	return streamBatches(ctx, cands, workers, batch, kr.VerifyRows, emit)
}

// VerifyLiteStream runs BayesLSH-Lite (Algorithm 2) over the
// candidates.
func (kr *kernel) VerifyLiteStream(ctx context.Context, cands []pair.Pair, h int, sim ExactSimFunc, workers, batch int, emit func(slot int, rs []pair.Result) error) (Stats, error) {
	return streamBatches(ctx, cands, workers, batch, func(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, Stats) {
		return kr.VerifyRowsLite(rows, h, sim, stop)
	}, emit)
}

// VerifyParallelCtx is VerifyStream collected in candidate order. A
// canceled run returns (nil, Stats{}, ctx.Err()) with all workers
// drained.
func (kr *kernel) VerifyParallelCtx(ctx context.Context, cands []pair.Pair, workers, batch int) ([]pair.Result, Stats, error) {
	return collect(func(emit func(int, []pair.Result) error) (Stats, error) {
		return kr.VerifyStream(ctx, cands, workers, batch, emit)
	})
}

// VerifyLiteParallelCtx is VerifyLiteStream collected in candidate
// order, under the VerifyParallelCtx cancellation contract.
func (kr *kernel) VerifyLiteParallelCtx(ctx context.Context, cands []pair.Pair, h int, sim ExactSimFunc, workers, batch int) ([]pair.Result, Stats, error) {
	return collect(func(emit func(int, []pair.Result) error) (Stats, error) {
		return kr.VerifyLiteStream(ctx, cands, h, sim, workers, batch, emit)
	})
}

// collect runs a verification stream into a slot sink.
func collect(run func(emit func(int, []pair.Result) error) (Stats, error)) ([]pair.Result, Stats, error) {
	var sink shard.Slots[pair.Result]
	st, err := run(sink.Put)
	if err != nil {
		return nil, Stats{}, err
	}
	return sink.Flat(), st, nil
}
