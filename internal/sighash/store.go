package sighash

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// BlockFamily generates random-hyperplane hash functions in blocks of
// blockBits and materializes their projection coefficients one row at
// a time: the row of feature f in block b — f's coefficient for each
// of the block's hash functions — is generated the first time some
// vector containing f is hashed through block b, and never otherwise.
// A row is derived from an independent deterministic stream keyed by
// (seed, f, b), so the family is identical regardless of who
// materializes what in which order — this per-work-item stream
// discipline is what keeps parallel hashing deterministic. A family is
// a pure function of (dim, maxBits, blockBits, seed), so holders over
// the same parameters may share one and with it every row already
// paid for: every index of a process — the shards of a cluster, a live
// index's merged bases, a hot-swapped snapshot — takes its family from
// SharedBlockFamily, while an engine that only runs batch searches
// builds a private one, so a join pays for its own rows however many
// indexes are alive. BlockFamily is safe for concurrent use.
type BlockFamily struct {
	dim, maxBits, blockBits int
	seed                    uint64

	mu     sync.Mutex                  // guards creation of block tables
	blocks []atomic.Pointer[blockRows] // nil until a block is first touched
	acc    sync.Pool                   // per-call accumulator, *[]float64 of blockBits
}

const (
	// chunkRows is the arena's allocation unit: rows are appended in
	// first-touch order into chunks of this many.
	chunkRows = 256
	// rowStripes is the number of generation locks per block. A row is
	// generated under stripes[feature%rowStripes], so workers hashing
	// through the same block generate different rows concurrently and
	// no row is generated twice.
	rowStripes = 64
)

// blockRows is one block's table of materialized rows: an append-only
// chunked arena plus a per-feature slot index into it. A reader that
// observes a non-zero slot (an acquire load) may read that row, and
// the chunk pointer it lives in, without any lock.
type blockRows struct {
	slot    []atomic.Int32 // per feature: 1 + its arena row, 0 while unmaterialized
	stripes [rowStripes]sync.Mutex
	mu      sync.Mutex // guards n and chunk allocation
	n       int        // arena rows reserved, each generated exactly once by its reserver
	// Chunk c holds arena rows [c·chunkRows, (c+1)·chunkRows), blockBits
	// quantized coefficients each.
	q [][]uint16
}

// NewBlockFamily creates a lazily-materialized family of maxBits hash
// functions over dim features. blockBits is the granularity at which
// signatures are extended (it is rounded up to a multiple of 64 so
// signature blocks align with words). Construction allocates nothing
// proportional to dim. The family is private to its caller; holders
// that should share rows take theirs from SharedBlockFamily.
func NewBlockFamily(dim, maxBits, blockBits int, seed uint64) *BlockFamily {
	return newBlockFamily(newFamilyKey(dim, maxBits, blockBits, seed))
}

// newFamilyKey checks the parameters and rounds blockBits up to whole
// words and maxBits up to whole blocks.
func newFamilyKey(dim, maxBits, blockBits int, seed uint64) familyKey {
	if dim <= 0 || maxBits <= 0 || blockBits <= 0 {
		panic("sighash: NewBlockFamily needs positive dim, maxBits, blockBits")
	}
	blockBits = (blockBits + 63) / 64 * 64
	if maxBits%blockBits != 0 {
		maxBits = (maxBits/blockBits + 1) * blockBits
	}
	return familyKey{dim: dim, maxBits: maxBits, blockBits: blockBits, seed: seed}
}

// newBlockFamily creates the empty family of a checked, rounded key.
func newBlockFamily(k familyKey) *BlockFamily {
	f := &BlockFamily{dim: k.dim, maxBits: k.maxBits, blockBits: k.blockBits, seed: k.seed}
	f.blocks = make([]atomic.Pointer[blockRows], k.maxBits/k.blockBits)
	f.acc.New = func() any {
		acc := make([]float64, k.blockBits)
		return &acc
	}
	return f
}

// MaxBits returns the family size (maximum signature length in bits).
func (f *BlockFamily) MaxBits() int { return f.maxBits }

// Dim returns the feature-space dimensionality the family hashes.
func (f *BlockFamily) Dim() int { return f.dim }

// BlockBits returns the granularity of signature extension.
func (f *BlockFamily) BlockBits() int { return f.blockBits }

// Rows returns how many projection rows the family has materialized
// so far, over all blocks. It only grows.
func (f *BlockFamily) Rows() int {
	n := 0
	for b := range f.blocks {
		if t := f.blocks[b].Load(); t != nil {
			t.mu.Lock()
			n += t.n
			t.mu.Unlock()
		}
	}
	return n
}

// block returns block b's row table, creating the empty table (a slot
// index and a chunk directory, no coefficients) on first touch.
func (f *BlockFamily) block(b int) *blockRows {
	if t := f.blocks[b].Load(); t != nil {
		return t
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.blocks[b].Load()
	if t == nil {
		t = &blockRows{slot: make([]atomic.Int32, f.dim), q: make([][]uint16, (f.dim+chunkRows-1)/chunkRows)}
		f.blocks[b].Store(t)
	}
	return t
}

// row returns feature feat's row in block b, materializing it if this
// is the first time any vector reads it.
func (f *BlockFamily) row(t *blockRows, b int, feat uint32) []uint16 {
	s := t.slot[feat].Load()
	if s == 0 {
		s = f.materialize(t, b, feat)
	}
	r := int(s) - 1
	off := r % chunkRows * f.blockBits
	return t.q[r/chunkRows][off : off+f.blockBits]
}

// materialize generates one row from its (seed, feature, block) stream
// and returns its slot. Generation runs under the feature's stripe
// only; the block lock is held just long enough to reserve an arena
// row, and the release store of the slot publishes the finished
// coefficients to lock-free readers.
func (f *BlockFamily) materialize(t *blockRows, b int, feat uint32) int32 {
	stripe := &t.stripes[feat%rowStripes]
	stripe.Lock()
	defer stripe.Unlock()
	if s := t.slot[feat].Load(); s != 0 {
		return s
	}
	bb := f.blockBits
	t.mu.Lock()
	r := t.n
	t.n++
	c, off := r/chunkRows, r%chunkRows*bb
	if off == 0 {
		t.q[c] = make([]uint16, chunkRows*bb)
	}
	t.mu.Unlock()
	src := rng.New(rng.Mix64(f.seed ^ (uint64(feat) + 1) ^ uint64(b+1)<<40))
	row := t.q[c][off : off+bb]
	for i := range row {
		row[i] = Quantize(src.NormFloat64())
	}
	t.slot[feat].Store(int32(r) + 1)
	return int32(r) + 1
}

// signBlock computes the signature bits of block b for v and writes
// them into sig (whose capacity covers the whole signature).
func (f *BlockFamily) signBlock(v vector.Vector, b int, sig []uint64, acc []float64) {
	t := f.block(b)
	bb := f.blockBits
	acc = acc[:bb]
	clear(acc)
	f.accumulate(t, b, v, acc)
	base := b * bb
	for j, a := range acc {
		if a >= 0 {
			sig[(base+j)/64] |= 1 << ((base + j) % 64)
		}
	}
}

// accumulate adds v's projections onto block b's hyperplanes into acc,
// four features per pass over acc: each acc[j] is loaded once, takes
// the four products in ascending feature order and is stored once, so
// every sum is rounded exactly as the one-feature-at-a-time loop
// rounds it. Each product is rounded by float64(·) before its add, so
// no architecture fuses the two (see the package doc).
func (f *BlockFamily) accumulate(t *blockRows, b int, v vector.Vector, acc []float64) {
	ind, val := v.Ind, v.Val[:len(v.Ind)]
	i := 0
	for ; i+4 <= len(ind); i += 4 {
		q0, q1 := f.row(t, b, ind[i])[:len(acc)], f.row(t, b, ind[i+1])[:len(acc)]
		q2, q3 := f.row(t, b, ind[i+2])[:len(acc)], f.row(t, b, ind[i+3])[:len(acc)]
		w0, w1, w2, w3 := val[i], val[i+1], val[i+2], val[i+3]
		for j := range acc {
			a := acc[j]
			a += float64(w0 * dequant[q0[j]])
			a += float64(w1 * dequant[q1[j]])
			a += float64(w2 * dequant[q2[j]])
			a += float64(w3 * dequant[q3[j]])
			acc[j] = a
		}
	}
	for ; i < len(ind); i++ {
		q, w := f.row(t, b, ind[i])[:len(acc)], val[i]
		for j := range acc {
			acc[j] += float64(w * dequant[q[j]])
		}
	}
}

// SignatureN computes bits [0, nbits) of v's signature in one call,
// the hashing path for an out-of-corpus vector whose depth is known up
// front (a live index's ingested entries); a query, whose depth
// depends on how far its candidates' rounds read, grows a QuerySig
// instead. nbits is rounded up to whole blocks and must not exceed
// MaxBits. Rows derive from the same (seed, feature, block) streams the
// lazy Store fills use, so a vector equal to a corpus vector yields a
// prefix bit-identical to that vector's stored signature.
func (f *BlockFamily) SignatureN(v vector.Vector, nbits int) []uint64 {
	bb := f.blockBits
	to := (nbits + bb - 1) / bb
	if to*bb > f.maxBits {
		panic("sighash: SignatureN beyond family capacity")
	}
	sig := make([]uint64, to*bb/64)
	f.signBlocks(v, 0, to, sig)
	return sig
}

// QuerySig is one out-of-corpus vector's signature, hashed only as
// deep as its reader has asked for — the query-side twin of a Store
// row. It holds the family, the vector (restricted to the family's
// feature space), a buffer sized for the family's full capacity and
// the filled prefix; Ensure hashes just the missing blocks into that
// buffer in place, through the same signBlocks as SignatureN and
// Store, so every prefix is bit-identical to SignatureN's. A QuerySig
// belongs to one query, which extends and reads it on one goroutine,
// so it takes no locks and is not safe for concurrent use.
type QuerySig struct {
	fam    *BlockFamily
	v      vector.Vector
	sig    []uint64
	filled int // bits hashed, a whole number of blocks
}

// NewQuerySig starts v's signature with nothing hashed. Features at or
// above Dim are dropped: no vector the family hashes for the corpus
// carries them, so they add nothing to any dot product the signature
// stands for (exact verification still sees the full vector).
func (f *BlockFamily) NewQuerySig(v vector.Vector) QuerySig {
	if v.Len() > 0 && uint64(v.Ind[v.Len()-1]) >= uint64(f.dim) {
		// Indices strictly increase, so the restriction is a prefix.
		k := sort.Search(v.Len(), func(i int) bool { return uint64(v.Ind[i]) >= uint64(f.dim) })
		v = vector.Vector{Ind: v.Ind[:k], Val: v.Val[:k]}
	}
	return QuerySig{fam: f, v: v, sig: make([]uint64, f.maxBits/64)}
}

// Ensure hashes the signature up to at least nbits bits, rounded up to
// whole blocks; a prefix already hashed costs nothing. It panics beyond
// MaxBits, like SignatureN.
func (q *QuerySig) Ensure(nbits int) {
	if nbits <= q.filled {
		return
	}
	bb := q.fam.blockBits
	to := (nbits + bb - 1) / bb
	if to*bb > q.fam.maxBits {
		panic("sighash: QuerySig.Ensure beyond family capacity")
	}
	q.fam.signBlocks(q.v, q.filled/bb, to, q.sig)
	q.filled = to * bb
}

// Bits returns the signature buffer. Bits [0, Filled()) are hashed;
// the rest stay zero until Ensure reaches them. The slice is stable
// for the QuerySig's lifetime.
func (q *QuerySig) Bits() []uint64 { return q.sig }

// Filled returns how many bits are hashed.
func (q *QuerySig) Filled() int { return q.filled }

// signBlocks fills blocks [from, to) of v's signature into sig with a
// pooled accumulator.
func (f *BlockFamily) signBlocks(v vector.Vector, from, to int, sig []uint64) {
	accp := f.acc.Get().(*[]float64)
	for b := from; b < to; b++ {
		f.signBlock(v, b, sig, *accp)
	}
	f.acc.Put(accp)
}

// Store lazily computes and caches packed bit signatures per vector,
// extending them block-by-block as verification demands deeper hash
// prefixes — the paper's "each point is only hashed as many times as
// is necessary". It is safe for concurrent use (synchronization via
// shard.Fill): a reader that calls Ensure(id, n) first — even if
// another goroutine did the fill — may read bits [0, n) of sigs[id]
// without further locking.
type Store struct {
	fam  *BlockFamily
	c    *vector.Collection
	sigs [][]uint64 // full capacity allocated; filled lazily
	fill *shard.Fill
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
// vectors against the same streams (see QuerySig and SignatureN).
func (s *Store) Family() *BlockFamily { return s.fam }

// FilledBits returns how many hash bits of vector id are computed.
func (s *Store) FilledBits(id int32) int { return s.fill.Filled(id) }

// Watermark returns a depth in bits every vector's signature is known
// to hold: the deepest completed EnsureAllCtx, or the depth a snapshot
// restored to every vector.
func (s *Store) Watermark() int { return s.fill.Watermark() }

// Elapsed returns the cumulative wall-clock time spent hashing. Under
// concurrent fills it sums per-goroutine fill time, which can exceed
// the wall-clock time of the enclosing phase.
func (s *Store) Elapsed() time.Duration { return s.fill.Elapsed() }

// Ensure fills vector id's signature up to at least nbits bits.
func (s *Store) Ensure(id int32, nbits int) {
	if s.fill.Filled(id) >= nbits {
		return // already deep enough: skip building the fill closure
	}
	s.fill.Ensure(id, nbits, func(from int) int {
		if s.c == nil {
			panic("sighash: fixed store cannot hash deeper than its persisted depth")
		}
		bb := s.fam.blockBits
		to := (nbits + bb - 1) / bb
		if to*bb > s.fam.maxBits {
			panic("sighash: Ensure beyond family capacity")
		}
		s.fam.signBlocks(s.c.Vecs[id], from/bb, to, s.sigs[id])
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
	err := shard.RunCtx(ctx, len(s.sigs), workers, shard.Chunk(len(s.sigs), workers, 16), func(lo, hi, _ int) {
		for id := lo; id < hi; id++ {
			if stop.Stopped() {
				return
			}
			s.Ensure(int32(id), nbits)
		}
	})
	if err == nil {
		s.fill.Raise(nbits)
	}
	return err
}
