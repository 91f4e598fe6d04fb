package sighash

import (
	"math"
	"math/bits"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

// Quantize maps a float in (−8, 8) to the paper's 2-byte fixed-point
// representation. Values outside clamp to the end codes, and so do the
// few just below 8 whose scaled value rounds up to 2¹⁶.
func Quantize(x float64) uint16 {
	if x <= -8 {
		return 0
	}
	if s := (x + 8) * 4096; s < 1<<16 {
		return uint16(s)
	}
	return math.MaxUint16
}

// Dequantize inverts Quantize up to the scheme's quantization error
// (at most 1/4096 ≈ 0.000244). It equals float64(q)/4096 − 8 exactly,
// written without a multiply-add a compiler could fuse.
func Dequantize(q uint16) float64 {
	return float64(int(q)-32768) / 4096
}

// dequant holds Dequantize(q) for every q, so the hashing loops replace
// a conversion, a scale and a shift per coefficient with one load. It
// is static data (512 KB), outside the garbage-collected heap.
var dequant [1 << 16]float64

func init() {
	for q := range dequant {
		dequant[q] = Dequantize(uint16(q))
	}
}

// Family is a set of random-hyperplane hash functions over a fixed
// feature space. It is safe for concurrent use after construction.
type Family struct {
	dim, nbits int
	quantized  bool
	// rows[feature] holds that feature's projection coefficient for
	// every hash function, in hash order — either quantized or exact.
	qrows [][]uint16
	frows [][]float64
}

// Option configures a Family.
type Option func(*Family)

// Exact stores projections as float64 instead of the default 2-byte
// quantized form. It exists to measure the accuracy/space trade-off of
// the paper's quantization scheme (see the ablation benchmarks).
func Exact() Option { return func(f *Family) { f.quantized = false } }

// NewFamily creates nbits random-hyperplane hash functions over a
// dim-dimensional feature space, derived deterministically from seed.
func NewFamily(dim, nbits int, seed uint64, opts ...Option) *Family {
	if dim <= 0 || nbits <= 0 {
		panic("sighash: NewFamily needs dim > 0 and nbits > 0")
	}
	f := &Family{dim: dim, nbits: nbits, quantized: true}
	for _, o := range opts {
		o(f)
	}
	// Per-feature generator streams keep generation deterministic and
	// independent of the order in which features are touched.
	if f.quantized {
		f.qrows = make([][]uint16, dim)
		for feat := 0; feat < dim; feat++ {
			src := rng.New(rng.Mix64(seed ^ uint64(feat+1)))
			row := make([]uint16, nbits)
			for b := range row {
				row[b] = Quantize(src.NormFloat64())
			}
			f.qrows[feat] = row
		}
		return f
	}
	f.frows = make([][]float64, dim)
	for feat := 0; feat < dim; feat++ {
		src := rng.New(rng.Mix64(seed ^ uint64(feat+1)))
		row := make([]float64, nbits)
		for b := range row {
			row[b] = src.NormFloat64()
		}
		f.frows[feat] = row
	}
	return f
}

// Bits returns the number of hash functions (signature length in bits).
func (f *Family) Bits() int { return f.nbits }

// Dim returns the feature-space dimensionality.
func (f *Family) Dim() int { return f.dim }

// Words returns the length in uint64 words of a packed signature.
func (f *Family) Words() int { return (f.nbits + 63) / 64 }

// Signature returns the packed bit signature of v. Bit i is hash
// function i's output (1 iff the projection onto hyperplane i is
// non-negative). The empty vector's projections are all zero, which by
// the >= 0 convention yields an all-ones signature; callers should
// drop empty vectors before indexing.
func (f *Family) Signature(v vector.Vector) []uint64 {
	acc := make([]float64, f.nbits)
	// float64(w*g) rounds each product before the add, so no
	// architecture fuses the two (see the package doc).
	if f.quantized {
		for i, ind := range v.Ind {
			w := v.Val[i]
			row := f.qrows[ind]
			for b, q := range row {
				acc[b] += float64(w * dequant[q])
			}
		}
	} else {
		for i, ind := range v.Ind {
			w := v.Val[i]
			row := f.frows[ind]
			for b, g := range row {
				acc[b] += float64(w * g)
			}
		}
	}
	sig := make([]uint64, f.Words())
	for b, a := range acc {
		if a >= 0 {
			sig[b/64] |= 1 << (b % 64)
		}
	}
	return sig
}

// SignatureAll computes signatures for every vector in the collection.
func (f *Family) SignatureAll(c *vector.Collection) [][]uint64 {
	sigs := make([][]uint64, len(c.Vecs))
	for i, v := range c.Vecs {
		sigs[i] = f.Signature(v)
	}
	return sigs
}

// MatchCount returns the number of agreeing bits of a and b in the
// half-open bit range [from, to): to − from minus the Hamming distance
// of that range. It panics if the range exceeds either signature.
func MatchCount(a, b []uint64, from, to int) int {
	if from < 0 || from > to || to > 64*len(a) || to > 64*len(b) {
		panic("sighash: MatchCount range out of bounds")
	}
	if from == to {
		return 0
	}
	firstWord, lastWord := from/64, (to-1)/64
	if firstWord == lastWord {
		// The range lies inside one word, as every round of K <= 64
		// word-aligned hashes does: shift it to the top of the word,
		// dropping the bits on either side.
		x := (a[firstWord] ^ b[firstWord]) >> (from % 64) << (64 - (to - from))
		return (to - from) - bits.OnesCount64(x)
	}
	mismatches := 0
	for w := firstWord; w <= lastWord; w++ {
		x := a[w] ^ b[w]
		if w == firstWord {
			x &= ^uint64(0) << (from % 64)
		}
		if w == lastWord {
			if r := to % 64; r != 0 {
				x &= (1 << r) - 1
			}
		}
		mismatches += bits.OnesCount64(x)
	}
	return (to - from) - mismatches
}

// MatchCounts adds to counts[i] the number of agreeing bits of q and
// sigs[ids[i]] in the bit range [from, to), for every i: the batched
// MatchCount of a query against many signatures. When the range lies
// inside one word, as every round of K <= 64 word-aligned hashes does,
// each id costs one XOR and one popcount, and the loads of different
// ids do not depend on each other. It panics if the range exceeds q or
// any of the signatures.
func MatchCounts(q []uint64, sigs [][]uint64, ids []int32, from, to int, counts []int32) {
	if from < 0 || from > to || to > 64*len(q) {
		panic("sighash: MatchCounts range out of bounds")
	}
	counts = counts[:len(ids)]
	w := from / 64
	if from == to || w != (to-1)/64 {
		for i, id := range ids {
			counts[i] += int32(MatchCount(q, sigs[id], from, to))
		}
		return
	}
	// Shift the range to the top of the word, dropping the bits on
	// either side, as MatchCount does.
	qw, shift, keep, width := q[w], uint(from%64), uint(64-(to-from)), int32(to-from)
	for i, id := range ids {
		counts[i] += width - int32(bits.OnesCount64((qw^sigs[id][w])>>shift<<keep))
	}
}

// Column returns word 0 of every signature, in id order: the
// column-major copy of the first 64 bits that MatchCountsColumn reads.
// Every signature must hold at least one word.
func Column(sigs [][]uint64) []uint64 {
	col := make([]uint64, len(sigs))
	for id, s := range sigs {
		col[id] = s[0]
	}
	return col
}

// MatchCountsColumn is MatchCounts for a bit range inside word 0, with
// the signatures' first words read from col (Column) and the query's
// from qw: each id costs one 8-byte load from a dense array, where the
// rows cost a slice header and a load from a separate row. It panics
// unless 0 <= from <= to <= 64.
func MatchCountsColumn(qw uint64, col []uint64, ids []int32, from, to int, counts []int32) {
	if from < 0 || from > to || to > 64 {
		panic("sighash: MatchCountsColumn range outside word 0")
	}
	if from == to {
		return
	}
	counts = counts[:len(ids)]
	shift, keep, width := uint(from), uint(64-(to-from)), int32(to-from)
	for i, id := range ids {
		counts[i] += width - int32(bits.OnesCount64((qw^col[id])>>shift<<keep))
	}
}

// Bit returns bit i of signature sig.
func Bit(sig []uint64, i int) uint64 { return (sig[i/64] >> (i % 64)) & 1 }

// RToCosine converts a collision probability r = 1 − θ/π into the
// cosine similarity cos(π(1−r)) — the paper's r2c function.
func RToCosine(r float64) float64 { return math.Cos(math.Pi * (1 - r)) }

// CosineToR converts a cosine similarity into the collision
// probability 1 − arccos(c)/π — the paper's c2r function.
func CosineToR(c float64) float64 {
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return 1 - math.Acos(c)/math.Pi
}
