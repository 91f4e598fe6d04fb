package core

import (
	"fmt"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/vector"
)

// JaccardVerifier is the §4.1 instantiation of BayesLSH: minhash
// signatures, a conjugate Beta(α, β) prior over the Jaccard
// similarity, and a Beta(m+α, n−m+β) posterior after observing the
// event M(m, n).
type JaccardVerifier struct {
	kernel
	prior stats.Beta
}

// NewJaccard builds a verifier over precomputed minhash signatures.
// prior is typically learned from a sample of candidate similarities
// with FitJaccardPrior; the uniform stats.Beta{Alpha: 1, Beta: 1} is a
// safe default.
func NewJaccard(sigs [][]uint32, prior stats.Beta, p Params) (*JaccardVerifier, error) {
	if len(sigs) == 0 {
		return nil, fmt.Errorf("core: no signatures")
	}
	if !prior.Valid() {
		return nil, fmt.Errorf("core: invalid prior %v", prior)
	}
	params, err := p.withDefaults(len(sigs[0]))
	if err != nil {
		return nil, err
	}
	for i, s := range sigs {
		if len(s) < params.MaxHashes {
			return nil, fmt.Errorf("core: signature %d has %d hashes, need %d", i, len(s), params.MaxHashes)
		}
	}
	v := &JaccardVerifier{prior: prior}
	v.kernel = kernel{
		stored: func(id int32) QuerySig { return QuerySig{Min: sigs[id]} },
		qmatchAll: func(q *QuerySig, ids []int32, from, to int, m []int32) {
			for i, id := range ids {
				m[i] += int32(minhash.Matches(q.Min, sigs[id], from, to))
			}
		},
		estimate:     v.Estimate,
		concentrated: v.concentrated,
	}
	v.init(params, "jaccard", prior, v.probAboveThreshold)
	return v, nil
}

// posterior returns the Beta posterior after the event M(m, n).
func (v *JaccardVerifier) posterior(m, n int) stats.Beta {
	return stats.Beta{Alpha: float64(m) + v.prior.Alpha, Beta: float64(n-m) + v.prior.Beta}
}

// probAboveThreshold computes Pr[S >= t | M(m, n)] (Equation 3):
// 1 − I_t(m+α, n−m+β).
func (v *JaccardVerifier) probAboveThreshold(m, n int) float64 {
	return v.posterior(m, n).SF(v.params.Threshold)
}

// Estimate returns the MAP similarity estimate after M(m, n)
// (Equation 4): the posterior mode (m+α−1)/(n+α+β−2).
func (v *JaccardVerifier) Estimate(m, n int) float64 {
	return v.posterior(m, n).Mode()
}

// concentrated reports whether Pr[|S − Ŝ| < δ | M(m, n)] >= 1 − γ
// (Equation 6): I_{Ŝ+δ}(m+α, n−m+β) − I_{Ŝ−δ}(m+α, n−m+β).
func (v *JaccardVerifier) concentrated(m, n int) bool {
	post := v.posterior(m, n)
	est := post.Mode()
	return post.IntervalProb(est-v.params.Delta, est+v.params.Delta) >= 1-v.params.Gamma
}

// liteRounds converts the Lite hash budget h into a round count,
// rounding up to whole rounds and clamping to the available table.
func liteRounds(h, k, maxRounds int) int {
	if h <= 0 {
		return maxRounds
	}
	r := (h + k - 1) / k
	if r < 1 {
		r = 1
	}
	if r > maxRounds {
		r = maxRounds
	}
	return r
}

// FitJaccardPrior learns a Beta prior by method-of-moments from the
// exact Jaccard similarities of up to sampleSize randomly chosen
// candidate pairs, as §4.1 prescribes. With no candidates it returns
// the uniform prior.
func FitJaccardPrior(c *vector.Collection, cands []pair.Pair, sampleSize int, seed uint64) stats.Beta {
	if len(cands) == 0 || sampleSize <= 0 {
		return stats.Beta{Alpha: 1, Beta: 1}
	}
	src := rng.New(seed)
	sims := make([]float64, 0, sampleSize)
	for i := 0; i < sampleSize; i++ {
		p := cands[src.Intn(len(cands))]
		sims = append(sims, vector.Jaccard(c.Vecs[p.A], c.Vecs[p.B]))
	}
	return stats.FitBetaMoments(sims)
}
