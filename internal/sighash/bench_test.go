package sighash

import (
	"testing"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

func benchVector(nnz, dim int, seed uint64) vector.Vector {
	src := rng.New(seed)
	m := make(map[uint32]float64, nnz)
	for len(m) < nnz {
		m[uint32(src.Intn(dim))] = src.NormFloat64()
	}
	return vector.FromMap(m)
}

func BenchmarkMatchCount64Bits(b *testing.B) {
	src := rng.New(9)
	x := []uint64{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
	y := []uint64{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchCount(x, y, 32, 96)
	}
}

// BenchmarkBlockFamilyAccumulate times the quantized hashing kernel
// alone: a 500-feature vector through sixteen 128-bit blocks whose
// rows the first pass already materialized, so every iteration is the
// accumulate and the sign step.
func BenchmarkBlockFamilyAccumulate(b *testing.B) {
	const dim, bits = 30000, 2048
	fam := NewBlockFamily(dim, bits, 128, 1)
	v := benchVector(500, dim, 4)
	fam.SignatureN(v, bits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.SignatureN(v, bits)
	}
}
