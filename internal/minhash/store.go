package minhash

import (
	"context"
	"time"

	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// Store lazily computes and caches minhash signatures per vector,
// extending them in blocks as verification demands deeper hash
// prefixes — the paper's "each point is only hashed as many times as
// is necessary". It is safe for concurrent use (synchronization via
// shard.Fill): a reader that calls Ensure(id, n) first — even if
// another goroutine did the fill — may read hashes [0, n) of sigs[id]
// without further locking. Each hash function's stream is keyed by its
// own seed, so fills are identical regardless of goroutine scheduling.
type Store struct {
	fam       *Family
	c         *vector.Collection
	blockSize int
	sigs      [][]uint32 // full capacity allocated; filled lazily
	fill      *shard.Fill
}

// NewStore creates a minhash signature store over the collection.
// blockSize controls materialization granularity (hashes are computed
// blockSize at a time; default 32 when 0).
func NewStore(c *vector.Collection, fam *Family, blockSize int) *Store {
	if blockSize <= 0 {
		blockSize = 32
	}
	n := fam.Size()
	s := &Store{
		fam:       fam,
		c:         c,
		blockSize: blockSize,
		sigs:      make([][]uint32, len(c.Vecs)),
		fill:      shard.NewFill(len(c.Vecs)),
	}
	backing := make([]uint32, n*len(c.Vecs))
	for i := range s.sigs {
		s.sigs[i], backing = backing[:n:n], backing[n:]
	}
	return s
}

// Sigs exposes the backing signature slices. Slice headers are stable
// for the store's lifetime; entries beyond the ensured prefix are zero
// until filled.
func (s *Store) Sigs() [][]uint32 { return s.sigs }

// MaxHashes returns the signature capacity.
func (s *Store) MaxHashes() int { return s.fam.Size() }

// Family returns the store's hash family, for hashing out-of-corpus
// vectors with the same seeds (see QuerySig and Family.SignatureN).
func (s *Store) Family() *Family { return s.fam }

// FilledHashes returns how many hashes of vector id are computed.
func (s *Store) FilledHashes(id int32) int { return s.fill.Filled(id) }

// Watermark returns a depth in hashes every vector's signature is
// known to hold: the deepest completed EnsureAllCtx, or the depth a
// snapshot restored to every vector.
func (s *Store) Watermark() int { return s.fill.Watermark() }

// Elapsed returns the cumulative wall-clock time spent hashing. Under
// concurrent fills it sums per-goroutine fill time, which can exceed
// the wall-clock time of the enclosing phase.
func (s *Store) Elapsed() time.Duration { return s.fill.Elapsed() }

// Ensure fills vector id's signature up to at least n hashes.
func (s *Store) Ensure(id int32, n int) {
	if s.fill.Filled(id) >= n {
		return // already deep enough: skip building the fill closure
	}
	s.fill.Ensure(id, n, func(from int) int {
		if s.c == nil {
			panic("minhash: fixed store cannot hash deeper than its persisted depth")
		}
		to := (n + s.blockSize - 1) / s.blockSize * s.blockSize
		if to > s.fam.Size() {
			to = s.fam.Size()
		}
		if n > to {
			panic("minhash: Ensure beyond family capacity")
		}
		s.fam.hashRange(s.c.Vecs[id], from, to, s.sigs[id])
		return to
	})
}

// Adopt copies an already-computed signature prefix of n hashes into
// vector id's slot and marks it filled — the live index's merge path,
// which moves signatures from the outgoing base store and memtable
// into a fresh store instead of re-hashing the corpus. The source may
// keep being used (and deepened) independently: the prefix is copied,
// not aliased. Like the snapshot loader's restore, Adopt must run
// before the store is shared with concurrent Ensure/Sigs readers.
// Deeper demand later resumes hashing at n through the ordinary lazy
// fill, and each hash function's stream is keyed by its own seed, so
// the result is bit-identical to a store that hashed everything
// itself.
func (s *Store) Adopt(id int32, sig []uint32, n int) {
	if n <= 0 {
		return
	}
	if n > s.fam.Size() || n > len(sig) {
		panic("minhash: Adopt needs a prefix within the family budget")
	}
	copy(s.sigs[id][:n], sig[:n])
	s.fill.Restore(id, n)
}

// EnsureAllCtx fills every vector's signature up to n hashes using a
// pool of workers goroutines, producing identical signatures for any
// worker count. Cancellation is polled between vectors. Vectors
// already filled stay filled — the lazy fill state remains consistent
// — so a later call resumes where a canceled one stopped.
func (s *Store) EnsureAllCtx(ctx context.Context, n, workers int) error {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	err := shard.RunCtx(ctx, len(s.sigs), workers, shard.Chunk(len(s.sigs), workers, 16), func(lo, hi, _ int) {
		for id := lo; id < hi; id++ {
			if stop.Stopped() {
				return
			}
			s.Ensure(int32(id), n)
		}
	})
	if err == nil {
		s.fill.Raise(n)
	}
	return err
}
