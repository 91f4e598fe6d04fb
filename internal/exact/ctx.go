package exact

import (
	"context"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// Sharded streaming forms of the exact scans: each block's results go
// to emit with the block's slot as the block completes (the
// shard.StreamCtx contract). Cancellation is polled between blocks by
// the shard dispatch and between individual rows or pairs (a row of
// the O(n²) scan compares against every later vector, so rows are the
// natural abort points within a block); a canceled call returns
// ctx.Err() with all workers drained.

// SearchStream is Search with the row scan sharded over workers
// goroutines. Small row blocks load-balance the triangular cost
// profile (early rows compare against many more partners than late
// rows).
func SearchStream(ctx context.Context, c *vector.Collection, m Measure, t float64, workers int, emit func(slot int, rs []pair.Result) error) error {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return shard.StreamCtx(ctx, len(c.Vecs), workers, 16, func(lo, hi int) []pair.Result {
		return searchRows(c, m, t, lo, hi, stop)
	}, emit)
}

// searchRows scans rows [lo, hi) of the triangular all-pairs matrix,
// aborting between rows once stop trips (the partial block is
// discarded by the ctx-aware callers).
func searchRows(c *vector.Collection, m Measure, t float64, lo, hi int, stop *shard.Stopper) []pair.Result {
	n := len(c.Vecs)
	var out []pair.Result
	for i := lo; i < hi; i++ {
		if stop.Stopped() {
			return nil
		}
		if c.Vecs[i].Len() == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if s := m.Sim(c.Vecs[i], c.Vecs[j]); s >= t {
				out = append(out, pair.Result{A: int32(i), B: int32(j), Sim: s})
			}
		}
	}
	return out
}

// VerifyStream is Verify with the candidate list sharded over workers
// goroutines in blocks of batch pairs.
func VerifyStream(ctx context.Context, c *vector.Collection, m Measure, t float64, cands []pair.Pair, workers, batch int, emit func(slot int, rs []pair.Result) error) error {
	if batch < 1 {
		batch = 1024
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return shard.StreamCtx(ctx, len(cands), workers, batch, func(lo, hi int) []pair.Result {
		return verifyBlock(c, m, t, cands[lo:hi], stop)
	}, emit)
}

// verifyBlock verifies one candidate block, polling stop per pair.
func verifyBlock(c *vector.Collection, m Measure, t float64, cands []pair.Pair, stop *shard.Stopper) []pair.Result {
	var out []pair.Result
	for _, p := range cands {
		if stop.Stopped() {
			return nil
		}
		if s := m.Sim(c.Vecs[p.A], c.Vecs[p.B]); s >= t {
			out = append(out, pair.Result{A: p.A, B: p.B, Sim: s})
		}
	}
	return out
}
