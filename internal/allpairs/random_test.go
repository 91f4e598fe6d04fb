package allpairs

import (
	"context"
	"testing"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// randomCorpus is an adversarial small corpus: duplicate vectors,
// singletons, heavy feature reuse, extreme weight skew.
func randomCorpus(src *rng.Source) *vector.Collection {
	n := 40 + src.Intn(60)
	dim := 30 + src.Intn(50)
	vecs := make([]vector.Vector, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && src.Float64() < 0.1 {
			// Exact duplicate of an earlier vector.
			vecs = append(vecs, vecs[src.Intn(len(vecs))].Clone())
			continue
		}
		m := map[uint32]float64{}
		l := 1 + src.Intn(10)
		for j := 0; j < l; j++ {
			w := src.Float64()
			if src.Float64() < 0.2 {
				w *= 50 // heavy skew
			}
			if w > 0 {
				m[uint32(src.Intn(dim))] = w
			}
		}
		vecs = append(vecs, vector.FromMap(m))
	}
	c := &vector.Collection{Dim: uint32Max(vecs) + 1, Vecs: vecs}
	c.Normalize()
	return c
}

// TestSearchRandomCorporaAgainstBruteForce stresses AllPairs with
// adversarial small corpora.
func TestSearchRandomCorporaAgainstBruteForce(t *testing.T) {
	src := rng.New(321)
	for trial := 0; trial < 8; trial++ {
		c := randomCorpus(src)
		for _, th := range []float64{0.4, 0.7, 0.95, 1.0} {
			got, err := Search(c, th)
			if err != nil {
				t.Fatal(err)
			}
			want := exact.Search(c, exact.Cosine, th)
			testutil.RequireSameResults(t, got, want, 1e-9)
		}
	}
}

// TestCandidatesRandomCorporaParallelMatchesSequential: on skewed
// weights and lengths — where posting lists are far from sorted by
// partner size and the size filter bites — the build-then-probe stream
// equals the interleaved scan's, pair for pair.
func TestCandidatesRandomCorporaParallelMatchesSequential(t *testing.T) {
	src := rng.New(654)
	for trial := 0; trial < 8; trial++ {
		c := randomCorpus(src)
		for _, th := range []float64{0.4, 0.7, 0.95} {
			want, err := Candidates(c, th)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 7; workers++ {
				got, err := CandidatesMeasureCtx(context.Background(), c, exact.Cosine, th, workers)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireSameSequence(t, "random corpus", got, want)
			}
		}
	}
}

func uint32Max(vecs []vector.Vector) int {
	var m uint32
	for _, v := range vecs {
		if v.Len() > 0 && v.Ind[v.Len()-1] > m {
			m = v.Ind[v.Len()-1]
		}
	}
	return int(m)
}
