package sighash

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// BlockFamily generates random-hyperplane hash functions in blocks of
// blockBits, materializing each block's projection coefficients only
// when some signature first needs it. Block b of feature f is derived
// from an independent deterministic stream keyed by (seed, f, b), so
// the family is identical regardless of materialization order — this
// per-work-item stream discipline is what keeps parallel hashing
// deterministic. BlockFamily is safe for concurrent use; distinct
// blocks materialize concurrently under per-block locks.
type BlockFamily struct {
	dim, maxBits, blockBits int
	seed                    uint64
	quantized               bool
	// qblocks[b] (or fblocks[b]) is a flattened dim × blockBits matrix
	// of projection coefficients for hash functions
	// [b·blockBits, (b+1)·blockBits). ready[b] is set (with release
	// semantics) once block b is materialized; readers that observe it
	// may read the block without holding mus[b].
	mus     []sync.Mutex
	ready   []atomic.Bool
	qblocks [][]uint16
	fblocks [][]float64
}

// NewBlockFamily creates a lazily-materialized family of maxBits hash
// functions over dim features. blockBits controls materialization
// granularity (it is rounded up to a multiple of 64 so signature
// blocks align with words).
func NewBlockFamily(dim, maxBits, blockBits int, seed uint64, opts ...Option) *BlockFamily {
	if dim <= 0 || maxBits <= 0 || blockBits <= 0 {
		panic("sighash: NewBlockFamily needs positive dim, maxBits, blockBits")
	}
	blockBits = (blockBits + 63) / 64 * 64
	if maxBits%blockBits != 0 {
		maxBits = (maxBits/blockBits + 1) * blockBits
	}
	f := &BlockFamily{dim: dim, maxBits: maxBits, blockBits: blockBits, seed: seed, quantized: true}
	// Reuse the Family option type: Exact() toggles quantization off.
	probe := &Family{quantized: true}
	for _, o := range opts {
		o(probe)
	}
	f.quantized = probe.quantized
	n := maxBits / blockBits
	f.mus = make([]sync.Mutex, n)
	f.ready = make([]atomic.Bool, n)
	f.qblocks = make([][]uint16, n)
	f.fblocks = make([][]float64, n)
	return f
}

// MaxBits returns the family size (maximum signature length in bits).
func (f *BlockFamily) MaxBits() int { return f.maxBits }

// Dim returns the feature-space dimensionality the family hashes.
func (f *BlockFamily) Dim() int { return f.dim }

// BlockBits returns the materialization granularity.
func (f *BlockFamily) BlockBits() int { return f.blockBits }

// ensureBlock materializes block b's projection rows. Safe for
// concurrent use: the first caller materializes under the block's
// lock, later callers return on the atomic fast path, and different
// blocks materialize in parallel.
func (f *BlockFamily) ensureBlock(b int) {
	if f.ready[b].Load() {
		return
	}
	f.mus[b].Lock()
	defer f.mus[b].Unlock()
	if f.ready[b].Load() {
		return
	}
	if f.quantized {
		rows := make([]uint16, f.dim*f.blockBits)
		for feat := 0; feat < f.dim; feat++ {
			src := rng.New(rng.Mix64(f.seed ^ uint64(feat+1) ^ uint64(b+1)<<40))
			row := rows[feat*f.blockBits : (feat+1)*f.blockBits]
			for i := range row {
				row[i] = Quantize(src.NormFloat64())
			}
		}
		f.qblocks[b] = rows
	} else {
		rows := make([]float64, f.dim*f.blockBits)
		for feat := 0; feat < f.dim; feat++ {
			src := rng.New(rng.Mix64(f.seed ^ uint64(feat+1) ^ uint64(b+1)<<40))
			row := rows[feat*f.blockBits : (feat+1)*f.blockBits]
			for i := range row {
				row[i] = src.NormFloat64()
			}
		}
		f.fblocks[b] = rows
	}
	f.ready[b].Store(true)
}

// signBlock computes the signature bits of block b for v and writes
// them into sig (whose capacity covers the whole signature).
func (f *BlockFamily) signBlock(v vector.Vector, b int, sig []uint64, acc []float64) {
	f.ensureBlock(b)
	bb := f.blockBits
	for i := range acc[:bb] {
		acc[i] = 0
	}
	if f.quantized {
		rows := f.qblocks[b]
		for i, ind := range v.Ind {
			w := v.Val[i]
			row := rows[int(ind)*bb : (int(ind)+1)*bb]
			for j, q := range row {
				acc[j] += w * (float64(q)/4096 - 8)
			}
		}
	} else {
		rows := f.fblocks[b]
		for i, ind := range v.Ind {
			w := v.Val[i]
			row := rows[int(ind)*bb : (int(ind)+1)*bb]
			for j, g := range row {
				acc[j] += w * g
			}
		}
	}
	base := b * bb
	for j := 0; j < bb; j++ {
		if acc[j] >= 0 {
			sig[(base+j)/64] |= 1 << ((base + j) % 64)
		}
	}
}

// SignatureN computes bits [0, nbits) of v's signature in one call,
// the hashing path for out-of-corpus query vectors. nbits is rounded
// up to whole blocks and must not exceed MaxBits. Blocks derive from
// the same (seed, feature, block) streams the lazy Store fills use, so
// a query vector equal to a corpus vector yields a prefix bit-identical
// to that vector's stored signature.
func (f *BlockFamily) SignatureN(v vector.Vector, nbits int) []uint64 {
	bb := f.blockBits
	to := (nbits + bb - 1) / bb
	if to*bb > f.maxBits {
		panic("sighash: SignatureN beyond family capacity")
	}
	sig := make([]uint64, to*bb/64)
	acc := make([]float64, bb)
	for b := 0; b < to; b++ {
		f.signBlock(v, b, sig, acc)
	}
	return sig
}

// Store lazily computes and caches packed bit signatures per vector,
// extending them block-by-block as verification demands deeper hash
// prefixes — the paper's "each point is only hashed as many times as
// is necessary". It is safe for concurrent use (synchronization via
// shard.Fill): a reader that calls Ensure(id, n) first — even if
// another goroutine did the fill — may read bits [0, n) of sigs[id]
// without further locking.
type Store struct {
	fam     *BlockFamily
	c       *vector.Collection
	sigs    [][]uint64 // full capacity allocated; filled lazily
	fill    *shard.Fill
	scratch sync.Pool // per-fill accumulator, []float64 of blockBits
}

// NewStore creates a signature store over the collection.
func NewStore(c *vector.Collection, fam *BlockFamily) *Store {
	words := fam.maxBits / 64
	s := &Store{
		fam:  fam,
		c:    c,
		sigs: make([][]uint64, len(c.Vecs)),
		fill: shard.NewFill(len(c.Vecs)),
	}
	s.scratch.New = func() any {
		acc := make([]float64, fam.blockBits)
		return &acc
	}
	backing := make([]uint64, words*len(c.Vecs))
	for i := range s.sigs {
		s.sigs[i], backing = backing[:words:words], backing[words:]
	}
	return s
}

// Sigs exposes the backing signature slices. Slice headers are stable
// for the store's lifetime; contents beyond the ensured prefix are
// zero until filled.
func (s *Store) Sigs() [][]uint64 { return s.sigs }

// MaxBits returns the signature capacity in bits.
func (s *Store) MaxBits() int { return s.fam.maxBits }

// Family returns the store's hash family, for hashing out-of-corpus
// query vectors against the same streams (see SignatureN).
func (s *Store) Family() *BlockFamily { return s.fam }

// FilledBits returns how many hash bits of vector id are computed.
func (s *Store) FilledBits(id int32) int { return s.fill.Filled(id) }

// Elapsed returns the cumulative wall-clock time spent hashing. Under
// concurrent fills it sums per-goroutine fill time, which can exceed
// the wall-clock time of the enclosing phase.
func (s *Store) Elapsed() time.Duration { return s.fill.Elapsed() }

// Ensure fills vector id's signature up to at least nbits bits.
func (s *Store) Ensure(id int32, nbits int) {
	s.fill.Ensure(id, nbits, func(from int) int {
		if s.c == nil {
			panic("sighash: fixed store cannot hash deeper than its persisted depth")
		}
		bb := s.fam.blockBits
		to := (nbits + bb - 1) / bb
		if to*bb > s.fam.maxBits {
			panic("sighash: Ensure beyond family capacity")
		}
		v := s.c.Vecs[id]
		accp := s.scratch.Get().(*[]float64)
		for b := from / bb; b < to; b++ {
			s.fam.signBlock(v, b, s.sigs[id], *accp)
		}
		s.scratch.Put(accp)
		return to * bb
	})
}

// Adopt copies an already-computed signature prefix of nbits bits
// (a whole number of family blocks, as every fill produces) into
// vector id's slot and marks it filled — the live index's merge path,
// which moves signatures from the outgoing base store and memtable
// into a fresh store instead of re-hashing the corpus. The source may
// keep being used (and deepened) independently: the prefix is copied,
// not aliased. Like the snapshot loader's restore, Adopt must run
// before the store is shared with concurrent Ensure/Sigs readers.
// Deeper demand later resumes hashing at nbits through the ordinary
// lazy fill, and the per-block hash streams are position-keyed, so the
// result is bit-identical to a store that hashed everything itself.
func (s *Store) Adopt(id int32, sig []uint64, nbits int) {
	if nbits <= 0 {
		return
	}
	if nbits%s.fam.blockBits != 0 || nbits > s.fam.maxBits || nbits > len(sig)*64 {
		panic("sighash: Adopt needs a block-aligned prefix within the family budget")
	}
	copy(s.sigs[id][:nbits/64], sig[:nbits/64])
	s.fill.Restore(id, nbits)
}

// EnsureAllCtx fills every vector's signature up to nbits bits using a
// pool of workers goroutines. Hash blocks derive from streams keyed by
// (seed, feature, block), so the signatures are identical for any
// worker count. Cancellation is polled between vectors. Vectors
// already filled stay filled — the lazy fill state remains consistent
// — so a later call resumes where a canceled one stopped, and a
// canceled fill wastes at most the blocks in flight.
func (s *Store) EnsureAllCtx(ctx context.Context, nbits, workers int) error {
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return shard.RunCtx(ctx, len(s.sigs), workers, shard.Chunk(len(s.sigs), workers, 16), func(lo, hi, _ int) {
		for id := lo; id < hi; id++ {
			if stop.Stopped() {
				return
			}
			s.Ensure(int32(id), nbits)
		}
	})
}
