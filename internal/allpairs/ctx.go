package allpairs

import (
	"context"
	"sync"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// Sharded forms of the AllPairs scan: the candidate generator and the
// streaming search. Both run the build-then-probe split of parallel.go
// (which reproduces the interleaved stream exactly): cancellation is
// polled between indexed vectors during the build and between posting
// lists during each probe, and the probe batches go through
// shard.RunCtx/StreamCtx so no new probe starts once the context is
// done. A canceled call returns ctx.Err() with all workers drained.

// buildThenProbe builds the inverted index to completion in processing
// order and returns the batch body of the probe phase: probe(lo, hi,
// collect) replays the probes of processing-order positions [lo, hi)
// against the finished index, calling collect(slot, x, y, acc) for
// every candidate of the vector at position slot. collect must only
// touch state owned by that slot; what it gathered must be discarded
// by the caller once stop has tripped.
func (s *searcher) buildThenProbe(stop *shard.Stopper) (probe func(lo, hi int, collect func(slot int, x, y int32, acc float64)), err error) {
	if err := s.index(stop); err != nil {
		return nil, err
	}
	pool := &sync.Pool{New: func() any {
		return &probeState{accs: make([]float64, len(s.c.Vecs))}
	}}
	return func(lo, hi int, collect func(slot int, x, y int32, acc float64)) {
		ps := pool.Get().(*probeState)
		for p := lo; p < hi; p++ {
			if stop.Stopped() {
				break
			}
			xid := s.order[p]
			s.probe(s.c.Vecs[xid], int32(p), ps, stop, func(y int32, acc float64) {
				collect(p, int32(xid), y, acc)
			})
		}
		pool.Put(ps)
	}, nil
}

// CandidatesMeasureCtx is CandidatesMeasure with the probe phase
// sharded over workers goroutines; it returns the exact candidate
// stream of the interleaved scan, in the same order.
func CandidatesMeasureCtx(ctx context.Context, c *vector.Collection, m exact.Measure, t float64, workers int) ([]pair.Pair, error) {
	in, tc, err := measureInput(c, m, t)
	if err != nil {
		return nil, err
	}
	s, err := newSearcher(in, tc)
	if err != nil {
		return nil, err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	probe, err := s.buildThenProbe(stop)
	if err != nil {
		return nil, err
	}
	perX := make([][]pair.Pair, len(s.order))
	if err := shard.RunCtx(ctx, len(s.order), workers, shard.Chunk(len(s.order), workers, 16), func(lo, hi, _ int) {
		probe(lo, hi, func(slot int, x, y int32, _ float64) {
			perX[slot] = append(perX[slot], pair.Make(x, y))
		})
	}); err != nil {
		return nil, err
	}
	var out []pair.Pair
	for _, ps := range perX {
		out = append(out, ps...)
	}
	return out, nil
}

// SearchMeasureStream is SearchMeasure with the probe and verification
// phases sharded over workers goroutines: each probe (cosine) or
// verification (binary measures) batch's results go to emit with the
// batch's slot as the batch completes (shard.StreamCtx contract).
// Collected in slot order (shard.Slots) they are the exact result
// stream of the interleaved scan, in the same order. For the binary
// measures the candidate set is still materialized — the scan's
// correctness depends on the full candidate stream — and only
// verification streams.
func SearchMeasureStream(ctx context.Context, c *vector.Collection, m exact.Measure, t float64, workers, batch int, emit func(slot int, rs []pair.Result) error) error {
	switch m {
	case exact.Cosine:
		s, err := newSearcher(c, t)
		if err != nil {
			return err
		}
		return s.streamResults(ctx, workers, emit)
	default:
		// Binary measures (and the unknown-measure error) go through
		// the shared candidate mapping, then verify under the
		// requested measure — mirroring SearchMeasure.
		cands, err := CandidatesMeasureCtx(ctx, c, m, t, workers)
		if err != nil {
			return err
		}
		return exact.VerifyStream(ctx, c, m, t, cands, workers, batch, emit)
	}
}

// streamResults runs the build-then-probe scan, delivering each probe
// batch's results, in processing order within the batch, through emit
// instead of accumulating them.
func (s *searcher) streamResults(ctx context.Context, workers int, emit func(slot int, rs []pair.Result) error) error {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	probe, err := s.buildThenProbe(stop)
	if err != nil {
		return err
	}
	return shard.StreamCtx(ctx, len(s.order), workers, shard.Chunk(len(s.order), workers, 16), func(lo, hi int) []pair.Result {
		var out []pair.Result
		probe(lo, hi, func(_ int, x, y int32, acc float64) {
			if r, ok := s.finish(x, y, acc); ok {
				out = append(out, r)
			}
		})
		return out
	}, emit)
}
