package core

import (
	"testing"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/vector"
)

// benchFixture builds minhash signatures for a corpus with a mix of
// near-duplicate and random pairs, plus a candidate list.
func benchFixture(nVecs int) ([][]uint32, []pair.Pair) {
	src := rng.New(7)
	c := &vector.Collection{Dim: 1 << 16}
	base := make(map[uint32]float64, 64)
	for len(base) < 64 {
		base[uint32(src.Intn(1<<16))] = 1
	}
	for i := 0; i < nVecs; i++ {
		m := make(map[uint32]float64, 64)
		if i%10 == 0 { // ~10% near-duplicates of the base set
			for k := range base {
				m[k] = 1
			}
			for j := 0; j < 8; j++ {
				m[uint32(src.Intn(1<<16))] = 1
			}
		} else {
			for len(m) < 64 {
				m[uint32(src.Intn(1<<16))] = 1
			}
		}
		c.Vecs = append(c.Vecs, vector.FromMap(m))
	}
	fam := minhash.NewFamily(512, 3)
	sigs := fam.SignatureAll(c)
	var cands []pair.Pair
	for i := 0; i < nVecs; i++ {
		for j := i + 1; j < i+8 && j < nVecs; j++ {
			cands = append(cands, pair.Make(int32(i), int32(j)))
		}
	}
	return sigs, cands
}

// BenchmarkAblationPriorLearnedVsUniform compares verification work
// under an informative prior (fit to the candidate similarity
// distribution, which is mostly near zero) against the uniform prior —
// the learned prior prunes obvious negatives slightly faster.
func BenchmarkAblationPriorLearnedVsUniform(b *testing.B) {
	sigs, cands := benchFixture(512)
	for _, tc := range []struct {
		name  string
		prior stats.Beta
	}{
		{"uniform", stats.Beta{Alpha: 1, Beta: 1}},
		{"learned-low", stats.Beta{Alpha: 0.8, Beta: 12}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			v, err := NewJaccard(sigs, tc.prior,
				Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			var hashes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := verifySeq(b, v, cands)
				hashes = st.HashesCompared
			}
			b.ReportMetric(float64(hashes), "hashes/op")
		})
	}
}

// BenchmarkAblationTableBuild measures what a verifier's first use of a
// new key costs — its prune table, and its accept table — and what
// every later verifier over the key costs: a registry lookup.
func BenchmarkAblationTableBuild(b *testing.B) {
	p := Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 32, MaxHashes: 2048}
	for _, kind := range []string{"cosine", "jaccard"} {
		b.Run(kind+"/cold", func(b *testing.B) {
			calls := 0
			for range b.N {
				forgetTables()
				var st Stats
				tableVerifier(b, kind, uniform, p).acceptTable(&st)
				calls = st.InferenceCalls
			}
			b.ReportMetric(float64(calls), "accept-calls/op")
		})
		b.Run(kind+"/interned", func(b *testing.B) {
			tableVerifier(b, kind, uniform, p).acceptTable(&Stats{})
			b.ResetTimer()
			for range b.N {
				tableVerifier(b, kind, uniform, p).acceptTable(&Stats{})
			}
		})
	}
}
