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

func BenchmarkSignature2048Bits(b *testing.B) {
	const dim = 4096
	fam := NewFamily(dim, 2048, 1)
	v := benchVector(100, dim, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.Signature(v)
	}
}

// BenchmarkAblationQuantizedVsExact measures the §4.3 2-byte storage
// scheme against float64 projections: the quantized family halves... —
// compare ns/op and B/op between the two sub-benchmarks.
func BenchmarkAblationQuantizedVsExact(b *testing.B) {
	const dim = 2048
	v := benchVector(100, dim, 3)
	b.Run("quantized", func(b *testing.B) {
		fam := NewFamily(dim, 1024, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fam.Signature(v)
		}
	})
	b.Run("exact", func(b *testing.B) {
		fam := NewFamily(dim, 1024, 1, Exact())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fam.Signature(v)
		}
	})
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
