// Batch candidate generation: the l hash tables (bands) are
// independent of one another, so each band's bucketing and collision
// enumeration runs on its own worker, and only the merge into the
// shared deduplicating set is serialized (under a mutex, as each band
// completes). Band keys depend only on the signatures and the band
// index, never on scheduling, so the candidate set is identical for
// any worker count; only the set's insertion order differs — no more
// than runs at one worker already differ among themselves through map
// iteration order. Callers that need a canonical order sort the pairs
// (the engine does). Peak memory is the unique candidate set plus at
// most one band's collision list per worker in flight.
//
// Cancellation is polled between bands by the shard dispatch and,
// within a band, between buckets of the collision enumeration — the
// stage whose volume explodes as the threshold drops (the paper's §5
// worst case), and therefore the stage a canceled low-threshold join
// most needs to escape from. A canceled call returns (nil, ctx.Err())
// with all band workers drained.

package lshindex

import (
	"context"
	"sync"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// CandidatesBitsCtx generates candidate pairs from packed bit
// signatures (cosine hyperplane hashes), the l bands sharded over
// workers goroutines. Band j covers bits [j*k, (j+1)*k). It returns an
// error if the signatures are too short for l bands of k bits. k must
// be in [1, 64].
func CandidatesBitsCtx(ctx context.Context, sigs [][]uint64, k, l, workers int) ([]pair.Pair, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	return runBandsCtx(ctx, len(sigs), l, workers, func(band int, stop *shard.Stopper) []pair.Pair {
		buckets := make(map[uint64][]int32)
		fillBitsBuckets(buckets, sigs, band, k)
		return bucketPairs(buckets, stop)
	})
}

// CandidatesBitsMultiProbeCtx is CandidatesBitsCtx with 1-step
// multi-probing: each signature is inserted into its own bucket and
// additionally probes the k buckets whose band key differs in one
// bit. Pairs whose band keys are within Hamming distance one therefore
// collide.
func CandidatesBitsMultiProbeCtx(ctx context.Context, sigs [][]uint64, k, l, workers int) ([]pair.Pair, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	return runBandsCtx(ctx, len(sigs), l, workers, func(band int, stop *shard.Stopper) []pair.Pair {
		buckets := make(map[uint64][]int32)
		fillBitsBuckets(buckets, sigs, band, k)
		ps := bucketPairs(buckets, stop)
		forProbePairs(buckets, k, stop, func(a, b int32) { ps = append(ps, pair.Make(a, b)) })
		return ps
	})
}

// CandidatesMinhashCtx generates candidate pairs from minhash
// signatures, the l bands sharded over workers goroutines. Band j
// covers hash positions [j*k, (j+1)*k); the band key is a 64-bit hash
// of those k values. It returns an error if signatures are too short.
func CandidatesMinhashCtx(ctx context.Context, sigs [][]uint32, k, l, workers int) ([]pair.Pair, error) {
	if err := validateMinhash(sigs, k, l); err != nil {
		return nil, err
	}
	return runBandsCtx(ctx, len(sigs), l, workers, func(band int, stop *shard.Stopper) []pair.Pair {
		buckets := make(map[uint64][]int32)
		scratch := make([]uint64, (k+1)/2)
		fillMinhashBuckets(buckets, sigs, band, k, scratch)
		return bucketPairs(buckets, stop)
	})
}

// bucketPairs lists every within-bucket pair, polling stop under the
// forBucketPairs contract. Within one band each id occupies exactly
// one bucket, so the result needs no per-band deduplication.
func bucketPairs(buckets map[uint64][]int32, stop *shard.Stopper) []pair.Pair {
	var ps []pair.Pair
	forBucketPairs(buckets, stop, func(a, b int32) { ps = append(ps, pair.Make(a, b)) })
	return ps
}

// runBandsCtx evaluates bandPairs for every band on a worker pool and
// deduplicates the collision lists into one candidate set as bands
// complete, so only in-flight bands hold undeduplicated pairs. Bands
// stop being dispatched once ctx is done, a band abandoned
// mid-enumeration contributes nothing, and the partially merged
// candidate set is discarded.
func runBandsCtx(ctx context.Context, n, l, workers int, bandPairs func(band int, stop *shard.Stopper) []pair.Pair) ([]pair.Pair, error) {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	var mu sync.Mutex
	set := pair.NewSet(n)
	err := shard.RunCtx(ctx, l, workers, 1, func(_, _, band int) {
		ps := bandPairs(band, stop)
		if stop.Stopped() {
			return
		}
		mu.Lock()
		for _, p := range ps {
			set.Add(p.A, p.B)
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return set.Pairs(), nil
}
