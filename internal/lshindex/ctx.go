// Batch candidate generation in two parallel phases, enumerating the
// candidate set deduplicated and already in ascending (A, B) order — the
// canonical order the verifier reads — so no global set and no sort of
// the whole set is ever needed.
//
//   - Bands → runs (Band*Ctx). The l bands are independent, so each
//     band is built on its own worker: every id's band key is
//     bucketed, and the buckets are laid out as sorted runs (bandRuns)
//     — ids ascending within each bucket, plus every id's bucket and
//     position.
//   - Rows (StreamRows). Row a's candidates are the ids b > a that
//     share a bucket with a in some band (with multi-probe, also a
//     bucket whose key differs in one bit): in a's own bucket these are
//     simply the run members after a. A per-worker id-set (pair.IDSet)
//     deduplicates them across bands and reads the row out in
//     ascending order, emptying itself. Contiguous row batches run on
//     the worker pool, and each batch's rows go, as they are
//     enumerated, to the caller's batch body on the same worker; the
//     bodies' outputs leave by slot.
//
// The Candidates*Ctx functions are the row phase with a body that
// collects pairs. Band keys depend only on the signatures and the band
// index, and row batches are numbered in row order, so outputs
// collected by slot are identical for any worker count. Peak memory is
// the runs (three int32s per id per band, plus the keys and their
// index under multi-probe), per worker one id-set (a bit per id and a
// summary bit per 64 ids, about n/8 bytes) and one row-long id
// buffer, and whatever the bodies keep — the candidate pairs only for
// the collecting form. A Banding is immutable and its first bands are
// a banding in their own right (Prefix), so a caller may keep one and
// serve any narrower request from it.
//
// Cancellation is polled between bands by the band dispatch, between
// row batches by the row dispatch, and between bands within a row — a
// bucket holding every id costs l·n per row, the paper's §5 worst case
// that a canceled low-threshold join most needs to escape. A canceled
// call returns ctx.Err() with every worker drained.

package lshindex

import (
	"cmp"
	"context"
	"slices"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// Banding is the band phase of a batch banded join over n ids: the l
// bands as sorted runs, ready for the row phase (StreamRows). It is
// immutable, so any number of row phases may read it.
type Banding struct {
	n, probeBits int
	runs         []bandRuns
}

// Tables returns the banding's band count l.
func (b *Banding) Tables() int { return len(b.runs) }

// Prefix returns the banding of its first l bands, sharing their runs:
// band j's runs depend only on the signatures and j, so it is the
// banding the band phase builds for l bands. l must be in
// [1, Tables()].
func (b *Banding) Prefix(l int) *Banding {
	if l < 1 || l > len(b.runs) {
		panic("lshindex: Banding.Prefix out of range")
	}
	return &Banding{n: b.n, probeBits: b.probeBits, runs: b.runs[:l:l]}
}

// BandBitsCtx runs the band phase over packed bit signatures (cosine
// hyperplane hashes), sharded over workers goroutines. Band j covers
// bits [j*k, (j+1)*k). With multiProbe, the row phase also pairs ids
// whose band keys differ in one bit (1-step multi-probe). It returns an
// error if the signatures are too short for l bands of k bits. k must
// be in [1, 64].
func BandBitsCtx(ctx context.Context, sigs [][]uint64, k, l int, multiProbe bool, workers int) (*Banding, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	probeBits := 0
	if multiProbe {
		probeBits = k
	}
	return band(ctx, len(sigs), l, probeBits, workers, bitsKeys(sigs, k))
}

// bitsKeys returns the band key functions of packed bit signatures:
// band j's key is the raw k-bit value at bits [j*k, (j+1)*k).
func bitsKeys(sigs [][]uint64, k int) func(band int) func(id int) uint64 {
	return func(band int) func(id int) uint64 {
		from := band * k
		return func(id int) uint64 { return bitsBand(sigs[id], from, k) }
	}
}

// BandMinhashCtx runs the band phase over minhash signatures, sharded
// over workers goroutines. Band j covers hash positions [j*k, (j+1)*k);
// the band key is a 64-bit hash of those k values. It returns an error
// if signatures are too short.
func BandMinhashCtx(ctx context.Context, sigs [][]uint32, k, l, workers int) (*Banding, error) {
	if err := validateMinhash(sigs, k, l); err != nil {
		return nil, err
	}
	return band(ctx, len(sigs), l, 0, workers, minhashKeys(sigs, k))
}

// minhashKeys returns the band key functions of minhash signatures,
// each with its own key scratch.
func minhashKeys(sigs [][]uint32, k int) func(band int) func(id int) uint64 {
	return func(band int) func(id int) uint64 {
		scratch := make([]uint64, (k+1)/2)
		return func(id int) uint64 { return minhashBandKey(sigs[id], band, k, scratch) }
	}
}

// CandidatesBitsCtx generates candidate pairs from packed bit
// signatures, sharded over workers goroutines, in ascending (A, B)
// order: BandBitsCtx and a row phase that collects the pairs.
func CandidatesBitsCtx(ctx context.Context, sigs [][]uint64, k, l, workers int) ([]pair.Pair, error) {
	b, err := BandBitsCtx(ctx, sigs, k, l, false, workers)
	if err != nil {
		return nil, err
	}
	return collect(ctx, b, workers)
}

// CandidatesBitsMultiProbeCtx is CandidatesBitsCtx with 1-step
// multi-probing: pairs whose band keys are within Hamming distance one
// also collide.
func CandidatesBitsMultiProbeCtx(ctx context.Context, sigs [][]uint64, k, l, workers int) ([]pair.Pair, error) {
	b, err := BandBitsCtx(ctx, sigs, k, l, true, workers)
	if err != nil {
		return nil, err
	}
	return collect(ctx, b, workers)
}

// CandidatesMinhashCtx generates candidate pairs from minhash
// signatures, sharded over workers goroutines, in ascending (A, B)
// order: BandMinhashCtx and a row phase that collects the pairs.
func CandidatesMinhashCtx(ctx context.Context, sigs [][]uint32, k, l, workers int) ([]pair.Pair, error) {
	b, err := BandMinhashCtx(ctx, sigs, k, l, workers)
	if err != nil {
		return nil, err
	}
	return collect(ctx, b, workers)
}

// collect runs the row phase of b and collects every row's pairs in
// slot order.
func collect(ctx context.Context, b *Banding, workers int) ([]pair.Pair, error) {
	var out shard.Slots[pair.Pair]
	if err := StreamRows(ctx, b, workers, func(rows pair.Rows, _ *shard.Stopper) []pair.Pair {
		return pair.AppendRows(nil, rows)
	}, out.Put); err != nil {
		return nil, err
	}
	return out.Flat(), nil
}

// bandRuns is one band's buckets as sorted runs: bucket b's members,
// ascending, are members[start[b]:start[b+1]], and id i sits in bucket
// bucket[i] at members[pos[i]]. When keyed (multi-probe, or a build that
// encodes the runs), keys[b] is bucket b's band key and index maps a
// key back to its bucket.
type bandRuns struct {
	start, members, bucket, pos []int32
	keys                        []uint64
	index                       map[uint64]int32
}

// newBandRuns buckets ids 0..n-1 by key and counting-sorts them into
// runs. Buckets are numbered in first-seen order; the numbering never
// reaches the output, which is ordered by id.
func newBandRuns(n int, key func(id int) uint64, keyed bool) bandRuns {
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
			if keyed {
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
	if keyed {
		r.index = index
	}
	return r
}

// encode lays the runs out as one sorted bucket run, buckets in
// ascending key order. The runs must be keyed.
func (r *bandRuns) encode() bandRun {
	order := make([]int32, len(r.keys))
	for b := range order {
		order[b] = int32(b)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(r.keys[a], r.keys[b]) })
	run := bandRun{
		keys: make([]uint64, 0, len(order)),
		ends: make([]uint64, 0, len(order)),
		blob: make([]byte, 0, len(r.members)+len(order)), // a byte per id and per count at least
	}
	for _, b := range order {
		run.add(r.keys[b], r.members[r.start[b]:r.start[b+1]])
	}
	return run
}

// addPartners adds to ids every id b > a that collides with a in this
// band. probeBits is the band width k under multi-probe and 0
// otherwise.
func (r *bandRuns) addPartners(ids *pair.IDSet, a int32, probeBits int) {
	b := r.bucket[a]
	ids.AddAll(r.members[r.pos[a]+1 : r.start[b+1]])
	for bit := range probeBits {
		nb, ok := r.index[r.keys[b]^(1<<bit)]
		if !ok {
			continue
		}
		run := r.members[r.start[nb]:r.start[nb+1]]
		after, _ := slices.BinarySearch(run, a) // a is not in run: the first member > a
		ids.AddAll(run[after:])
	}
}

// rowScratch is one worker's row-phase state: the id-set that
// deduplicates a row's partners across bands, and the row they are
// read out into, ascending.
type rowScratch struct {
	ids pair.IDSet
	row []int32
}

// band builds the runs of l bands over n ids. bandKey returns band
// band's key function; it is called once per band, so the key function
// may own per-band scratch.
func band(ctx context.Context, n, l, probeBits, workers int, bandKey func(band int) func(id int) uint64) (*Banding, error) {
	b := &Banding{n: n, probeBits: probeBits, runs: make([]bandRuns, l)}
	if err := shard.RunCtx(ctx, l, workers, 1, func(_, _, band int) {
		b.runs[band] = newBandRuns(n, bandKey(band), probeBits > 0)
	}); err != nil {
		return nil, err
	}
	return b, nil
}

// buildRuns runs the band phase for point-probe tables over n ids:
// each band is bucketed into runs and encoded, on the worker that
// built it, into its sorted bucket run, so only the encoding outlives
// the band. Table builds are not cancelable, hence the background
// context, which never errs.
func buildRuns(n, k, l, workers int, bandKey func(band int) func(id int) uint64) runTables {
	t := runTables{k: k, l: l, n: n, bands: make([]bandRun, l)}
	_ = shard.RunCtx(context.Background(), l, workers, 1, func(_, _, band int) {
		r := newBandRuns(n, bandKey(band), true)
		t.bands[band] = r.encode()
	})
	return t
}

// StreamRows runs the row phase of a banding on workers goroutines, in
// contiguous batches of rows. Each batch's rows — every id a with at
// least one partner, in ascending a, its partners the ids b > a that
// collide with a in some band, ascending and deduplicated (see
// pair.Rows for who owns the slice) — go to body as they are
// enumerated, on the worker that enumerates them, together with the
// run's stopper, which body may poll to abandon a batch early. Each
// body's output goes to emit with its batch's slot, under the
// shard.StreamCtx contract, so outputs concatenated in slot order follow
// ascending a at any worker count. A batch whose enumeration was cut
// short by cancellation is discarded, not emitted.
func StreamRows[T any](ctx context.Context, b *Banding, workers int, body func(rows pair.Rows, stop *shard.Stopper) T, emit func(slot int, v T) error) error {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	// At most max(workers, 1) row batches run at once, so the pool never
	// holds more scratch than that and a put never blocks. Every row
	// leaves its id-set empty, so a reused scratch needs no clearing.
	free := make(chan *rowScratch, max(workers, 1))
	// Row costs are very uneven — a row's partners number from none to
	// thousands, and in a cold join the first rows to reach a signature
	// depth pay for hashing it — so batches are small, about 64 per
	// worker, for the pool to balance them.
	return shard.StreamCtx(ctx, b.n, workers, shard.Chunk(b.n, 16*workers, 16), func(lo, hi int) T {
		var s *rowScratch
		select {
		case s = <-free:
		default:
			s = new(rowScratch)
		}
		defer func() { free <- s }()
		v := body(func(yield func(int32, []int32) bool) {
			for a := int32(lo); a < int32(hi); a++ {
				for j := range b.runs {
					if stop.Stopped() {
						s.row = s.ids.AppendAscending(s.row[:0]) // empty the set for the next batch
						return
					}
					b.runs[j].addPartners(&s.ids, a, b.probeBits)
				}
				s.row = s.ids.AppendAscending(s.row[:0])
				if len(s.row) == 0 {
					continue
				}
				if !yield(a, s.row) {
					return
				}
			}
		}, stop)
		if stop.Stopped() {
			var discarded T
			return discarded
		}
		return v
	}, emit)
}
