package lshindex

import (
	"context"
	"testing"

	"bayeslsh/internal/rng"
)

func benchBitSigs(n, words int, seed uint64) [][]uint64 {
	src := rng.New(seed)
	sigs := make([][]uint64, n)
	for i := range sigs {
		s := make([]uint64, words)
		for w := range s {
			s[w] = src.Uint64()
		}
		sigs[i] = s
	}
	return sigs
}

func BenchmarkCandidatesBitsMultiProbe(b *testing.B) {
	sigs := benchBitSigs(2000, 16, 3)
	// Multi-probe reaches comparable recall from ~8x fewer tables.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CandidatesBitsMultiProbeCtx(context.Background(), sigs, 8, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}
