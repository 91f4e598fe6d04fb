package lshindex

import (
	"fmt"
	"math"
)

// NumTables returns l = ⌈log ε / log(1 − p^k)⌉, the number of banded
// hash tables required so that a pair with per-hash collision
// probability p is missed with probability at most eps, saturated at
// math.MaxInt32 (also when p^k is too small for 1 − p^k to differ
// from 1).
func NumTables(p float64, k int, eps float64) int {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 1
	}
	if k <= 0 || eps <= 0 || eps >= 1 {
		panic("lshindex: NumTables needs k > 0 and eps in (0,1)")
	}
	pk := math.Pow(p, float64(k))
	if pk >= 1 {
		return 1
	}
	return tablesFor(eps, pk)
}

// maxTables is the saturated table count: the formula's value is
// clamped to it, so a plan asking for more tables than any signature
// holds is cut to the signature budget by the caller, never wrapped.
const maxTables = math.MaxInt32

// MissRate returns (1 − p^k)^l, the probability that banding over l
// tables of k hashes misses a pair with per-hash collision probability
// p: the false negative rate NumTables inverts, at or below eps
// whenever l is the count it returned.
func MissRate(p float64, k, l int) float64 {
	return math.Pow(1-math.Pow(p, float64(k)), float64(l))
}

// tablesFor returns ⌈log ε / log(1 − q)⌉ for a per-band collision
// probability q in [0, 1), saturated at maxTables. Below q ≈ 2⁻⁵³,
// 1 − q rounds to 1 and no finite table count is enough, so the count
// saturates there too.
func tablesFor(eps, q float64) int {
	d := math.Log(1 - q)
	if d == 0 {
		return maxTables
	}
	l := math.Ceil(math.Log(eps) / d)
	if l < 1 {
		return 1
	}
	if l > maxTables {
		return maxTables
	}
	return int(l)
}

// fnv1a64 hashes b with the 64-bit FNV-1a function, seeded.
func fnv1a64(seed uint64, words []uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed*prime
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// bitsBand extracts bits [from, from+k) of a packed bit signature as a
// uint64. k must be at most 64.
func bitsBand(sig []uint64, from, k int) uint64 {
	word, off := from/64, from%64
	v := sig[word] >> off
	if off+k > 64 {
		v |= sig[word+1] << (64 - off)
	}
	if k < 64 {
		v &= (1 << k) - 1
	}
	return v
}

// validateBits checks packed bit signatures against l bands of k bits.
func validateBits(sigs [][]uint64, k, l int) error {
	if k < 1 || k > 64 {
		return fmt.Errorf("lshindex: k = %d outside [1, 64]", k)
	}
	if l < 1 {
		return fmt.Errorf("lshindex: l = %d must be positive", l)
	}
	for i, s := range sigs {
		if len(s)*64 < k*l {
			return fmt.Errorf("lshindex: signature %d has %d bits, need %d", i, len(s)*64, k*l)
		}
	}
	return nil
}

// validateMinhash checks minhash signatures against l bands of k
// hashes.
func validateMinhash(sigs [][]uint32, k, l int) error {
	if k < 1 {
		return fmt.Errorf("lshindex: k = %d must be positive", k)
	}
	if l < 1 {
		return fmt.Errorf("lshindex: l = %d must be positive", l)
	}
	for i, s := range sigs {
		if len(s) < k*l {
			return fmt.Errorf("lshindex: signature %d has %d hashes, need %d", i, len(s), k*l)
		}
	}
	return nil
}
