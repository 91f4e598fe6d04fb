package core

import (
	"fmt"

	"bayeslsh/internal/sighash"
	"bayeslsh/internal/stats"
)

// CosineVerifier is the §4.2 instantiation of BayesLSH: packed
// random-hyperplane bit signatures and a uniform prior over the
// collision probability r = 1 − θ/π ∈ [0.5, 1]. All inference happens
// in r-space — the posterior after M(m, n) is proportional to
// r^m (1−r)^(n−m) truncated to [0.5, 1] — and results are transformed
// back to cosine space with r2c(r) = cos(π(1−r)).
type CosineVerifier struct {
	kernel
	tr float64 // threshold mapped to r-space
}

// NewCosine builds a verifier over packed bit signatures of at least
// p.MaxHashes bits (sigBits is the usable signature length in bits).
func NewCosine(sigs [][]uint64, sigBits int, p Params) (*CosineVerifier, error) {
	if len(sigs) == 0 {
		return nil, fmt.Errorf("core: no signatures")
	}
	params, err := p.withDefaults(sigBits)
	if err != nil {
		return nil, err
	}
	for i, s := range sigs {
		if len(s)*64 < params.MaxHashes {
			return nil, fmt.Errorf("core: signature %d has %d bits, need %d", i, len(s)*64, params.MaxHashes)
		}
	}
	v := &CosineVerifier{tr: sighash.CosineToR(params.Threshold)}
	v.kernel = bitsKernel(sigs, v.Estimate, v.concentrated)
	v.init(params, v.probAboveThreshold)
	return v, nil
}

// bitsKernel returns a kernel with the hooks of a verifier over packed
// bit signatures (cosine hyperplane bits, 1-bit minhashes): hashes are
// compared by XOR + popcount.
func bitsKernel(sigs [][]uint64, estimate func(m, n int) float64, concentrated func(m, n int) bool) kernel {
	return kernel{
		stored: func(id int32) QuerySig { return QuerySig{Bits: sigs[id]} },
		qmatchAll: func(q *QuerySig, ids []int32, from, to int, m []int32) {
			sighash.MatchCounts(q.Bits, sigs, ids, from, to, m)
		},
		estimate:     estimate,
		concentrated: concentrated,
	}
}

// upperTail returns Pr[R >= x] under the untruncated Beta(m+1, n−m+1)
// law, computed as I_{1−x}(n−m+1, m+1) to avoid the cancellation of
// 1 − I_x(·) when the tail is tiny.
func upperTail(x float64, m, n int) float64 {
	return stats.RegIncBeta(1-x, float64(n-m+1), float64(m+1))
}

// probAboveThreshold computes Pr[S >= t | M(m, n)] (Equation 3 for the
// cosine instantiation):
//
//	(B₁ − B_tr) / (B₁ − B_0.5)  with B_x = B_x(m+1, n−m+1),
//
// i.e. the ratio of upper tails at tr and at 0.5 of the truncated
// posterior.
func (v *CosineVerifier) probAboveThreshold(m, n int) float64 {
	den := upperTail(0.5, m, n)
	if den <= 0 {
		// The posterior mass on [0.5, 1] has underflowed entirely;
		// such a pair is nowhere near the threshold.
		return 0
	}
	return upperTail(v.tr, m, n) / den
}

// Estimate returns the MAP cosine estimate after M(m, n) (Equation 4):
// R̂ = m/n clamped to the support [0.5, 1], transformed by r2c.
func (v *CosineVerifier) Estimate(m, n int) float64 {
	r := float64(m) / float64(n)
	if r < 0.5 {
		r = 0.5
	}
	if r > 1 {
		r = 1
	}
	return sighash.RToCosine(r)
}

// concentrated reports whether Pr[|S − Ŝ| < δ | M(m, n)] >= 1 − γ
// (Equation 6 for the cosine instantiation), evaluated in r-space as
// (B_{c2r(Ŝ+δ)} − B_{c2r(Ŝ−δ)}) / (B₁ − B_0.5).
func (v *CosineVerifier) concentrated(m, n int) bool {
	den := upperTail(0.5, m, n)
	if den <= 0 {
		return true // degenerate; the pair will have been pruned
	}
	est := v.Estimate(m, n)
	lo := sighash.CosineToR(est - v.params.Delta)
	hi := sighash.CosineToR(est + v.params.Delta)
	if lo < 0.5 {
		lo = 0.5
	}
	num := upperTail(lo, m, n) - upperTail(hi, m, n)
	return num/den >= 1-v.params.Gamma
}
