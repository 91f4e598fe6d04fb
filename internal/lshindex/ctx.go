// Batch candidate generation in two parallel phases, producing the
// candidate set deduplicated and already in ascending (A, B) order — the
// canonical order the verifier reads — so no global set and no sort of
// the whole set is ever needed.
//
//   - Bands → runs. The l bands are independent, so each band is built
//     on its own worker: every id's band key is bucketed, and the
//     buckets are laid out as sorted runs (bandRuns) — ids ascending
//     within each bucket, plus every id's bucket and position.
//   - Rows → pairs. Row a's candidates are the ids b > a that share a
//     bucket with a in some band (with multi-probe, also a bucket whose
//     key differs in one bit): in a's own bucket these are simply the
//     run members after a. A per-worker stamp array, tagged a+1,
//     deduplicates them across bands, and the row is sorted and
//     emitted as (a, b) pairs. Contiguous row batches run on the worker
//     pool and are concatenated in batch order.
//
// Band keys depend only on the signatures and the band index, and rows
// are concatenated in row order, so the output is identical for any
// worker count. Peak memory is the runs (three int32s per id per band)
// plus the candidate pairs.
//
// Cancellation is polled between bands by the band dispatch, between
// row batches by the row dispatch, and between bands within a row — a
// bucket holding every id costs l·n per row, the paper's §5 worst case
// that a canceled low-threshold join most needs to escape. A canceled
// call returns (nil, ctx.Err()) with every worker drained.

package lshindex

import (
	"context"
	"math/bits"
	"slices"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// CandidatesBitsCtx generates candidate pairs from packed bit
// signatures (cosine hyperplane hashes), sharded over workers
// goroutines, in ascending (A, B) order. Band j covers bits
// [j*k, (j+1)*k). It returns an error if the signatures are too short
// for l bands of k bits. k must be in [1, 64].
func CandidatesBitsCtx(ctx context.Context, sigs [][]uint64, k, l, workers int) ([]pair.Pair, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	return bandedCandidates(ctx, len(sigs), l, 0, workers, bitsKeys(sigs, k))
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
	return bandedCandidates(ctx, len(sigs), l, k, workers, bitsKeys(sigs, k))
}

// CandidatesMinhashCtx generates candidate pairs from minhash
// signatures, sharded over workers goroutines, in ascending (A, B)
// order. Band j covers hash positions [j*k, (j+1)*k); the band key is a
// 64-bit hash of those k values. It returns an error if signatures are
// too short.
func CandidatesMinhashCtx(ctx context.Context, sigs [][]uint32, k, l, workers int) ([]pair.Pair, error) {
	if err := validateMinhash(sigs, k, l); err != nil {
		return nil, err
	}
	return bandedCandidates(ctx, len(sigs), l, 0, workers, func(band int) func(id int) uint64 {
		scratch := make([]uint64, (k+1)/2)
		return func(id int) uint64 { return minhashBandKey(sigs[id], band, k, scratch) }
	})
}

// bitsKeys returns the per-band key function of packed bit signatures:
// band j's key is bits [j*k, (j+1)*k).
func bitsKeys(sigs [][]uint64, k int) func(band int) func(id int) uint64 {
	return func(band int) func(id int) uint64 {
		from := band * k
		return func(id int) uint64 { return bitsBand(sigs[id], from, k) }
	}
}

// bandRuns is one band's buckets as sorted runs: bucket b's members,
// ascending, are members[start[b]:start[b+1]], and id i sits in bucket
// bucket[i] at members[pos[i]]. With multi-probe, keys[b] is bucket b's
// band key and index maps a key back to its bucket.
type bandRuns struct {
	start, members, bucket, pos []int32
	keys                        []uint64
	index                       map[uint64]int32
}

// newBandRuns buckets ids 0..n-1 by key and counting-sorts them into
// runs. Buckets are numbered in first-seen order; the numbering never
// reaches the output, which is ordered by id.
func newBandRuns(n int, key func(id int) uint64, probe bool) bandRuns {
	r := bandRuns{members: make([]int32, n), bucket: make([]int32, n), pos: make([]int32, n)}
	index := make(map[uint64]int32)
	var counts []int32
	for id := range n {
		k := key(id)
		b, ok := index[k]
		if !ok {
			b = int32(len(counts))
			index[k] = b
			counts = append(counts, 0)
			if probe {
				r.keys = append(r.keys, k)
			}
		}
		r.bucket[id] = b
		counts[b]++
	}
	// Prefix sums make start[b] bucket b's end; placing ids in
	// descending order then walks each start[b] back to the bucket's
	// beginning and leaves every run ascending.
	r.start = append(counts, int32(n))
	for b := 1; b < len(counts); b++ {
		r.start[b] += r.start[b-1]
	}
	for id := n - 1; id >= 0; id-- {
		b := r.bucket[id]
		r.start[b]--
		r.pos[id] = r.start[b]
		r.members[r.start[b]] = int32(id)
	}
	if probe {
		r.index = index
	}
	return r
}

// appendPartners appends to row every id b > a that collides with a in
// this band and is not yet stamped with tag, stamping it. probeBits is
// the band width k under multi-probe and 0 otherwise.
func (r *bandRuns) appendPartners(row []int32, a int32, probeBits int, stamp []int32, tag int32) []int32 {
	b := r.bucket[a]
	row = appendUnstamped(row, r.members[r.pos[a]+1:r.start[b+1]], stamp, tag)
	for bit := range probeBits {
		nb, ok := r.index[r.keys[b]^(1<<bit)]
		if !ok {
			continue
		}
		run := r.members[r.start[nb]:r.start[nb+1]]
		after, _ := slices.BinarySearch(run, a) // a is not in run: the first member > a
		row = appendUnstamped(row, run[after:], stamp, tag)
	}
	return row
}

// appendUnstamped appends to row the ids not yet stamped with tag,
// stamping them.
func appendUnstamped(row, ids, stamp []int32, tag int32) []int32 {
	for _, id := range ids {
		if stamp[id] != tag {
			stamp[id] = tag
			row = append(row, id)
		}
	}
	return row
}

// appendRow appends row a's pairs (a, b) to ps in ascending b. row
// holds the partners in collection order; after is the stamp array
// from id a+1 on, where exactly the partners carry the tag a+1. A row
// dense enough that sorting it would cost more than one pass over
// after is read back off the stamps in id order instead.
func appendRow(ps []pair.Pair, a int32, row, after []int32) []pair.Pair {
	if need := len(row) + 1; cap(ps)-len(ps) < need {
		ps = slices.Grow(ps, max(need, len(ps))) // doubling: each pair is copied about once
	}
	dst := ps[len(ps) : len(ps)+len(row)+1]
	if len(row)*bits.Len(uint(len(row))) < len(after)/8 {
		slices.Sort(row)
		for i, b := range row {
			dst[i] = pair.Pair{A: a, B: b}
		}
	} else {
		// Branch-free: every id is written to the next slot, which only
		// advances past a partner (tags are non-negative, so
		// tag^(a+1)-1 has its top bit set exactly when tag == a+1).
		// The spare slot absorbs the write after the last partner.
		j := 0
		for i, tag := range after {
			dst[j] = pair.Pair{A: a, B: a + 1 + int32(i)}
			j += int((uint32(tag^(a+1)) - 1) >> 31)
		}
	}
	return ps[:len(ps)+len(row)]
}

// rowScratch is one worker's row-phase state: the stamp array and the
// row being assembled.
type rowScratch struct{ stamp, row []int32 }

// bandedCandidates runs both phases over n ids and l bands. bandKey
// returns band band's key function; it is called once per band, so the
// key function may own per-band scratch.
func bandedCandidates(ctx context.Context, n, l, probeBits, workers int, bandKey func(band int) func(id int) uint64) ([]pair.Pair, error) {
	runs := make([]bandRuns, l)
	if err := shard.RunCtx(ctx, l, workers, 1, func(_, _, band int) {
		runs[band] = newBandRuns(n, bandKey(band), probeBits > 0)
	}); err != nil {
		return nil, err
	}

	stop := shard.NewStopper(ctx)
	defer stop.Close()
	// At most max(workers, 1) row batches run at once, so the pool never
	// holds more scratch than that and a put never blocks. Tags are row
	// ids, unique within this call, so a reused stamp needs no clearing.
	free := make(chan *rowScratch, max(workers, 1))
	var out shard.Slots[pair.Pair]
	err := shard.StreamCtx(ctx, n, workers, shard.Chunk(n, workers, 64), func(lo, hi int) []pair.Pair {
		var s *rowScratch
		select {
		case s = <-free:
		default:
			s = &rowScratch{stamp: make([]int32, n)}
		}
		defer func() { free <- s }()
		var ps []pair.Pair
		for a := int32(lo); a < int32(hi); a++ {
			s.row = s.row[:0]
			for j := range runs {
				if stop.Stopped() {
					return nil // a stopped batch's output is discarded
				}
				s.row = runs[j].appendPartners(s.row, a, probeBits, s.stamp, a+1)
			}
			ps = appendRow(ps, a, s.row, s.stamp[a+1:])
		}
		return ps
	}, out.Put)
	if err != nil {
		return nil, err
	}
	return out.Flat(), nil
}
