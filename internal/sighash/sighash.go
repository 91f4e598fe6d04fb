package sighash

import (
	"math"
	"math/bits"
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
