package core

import "fmt"

// OneBitJaccardVerifier extends BayesLSH to 1-bit minwise hashing
// (b-bit minhash with b = 1; Li and König, WWW 2010), realizing the
// paper's §6 claim that the general algorithm adapts to any LSH
// family. Signatures store only the lowest bit of each minhash, 32×
// smaller than full minhash signatures, and hash comparison becomes
// XOR + popcount.
//
// For sets with Jaccard similarity J, 1-bit hashes collide with
// probability r = (1 + J)/2 (large-universe approximation), so all
// inference runs over r ∈ [1/2, 1] with a uniform prior — exactly the
// truncated-support machinery of the cosine instantiation with the
// linear transform J = 2r − 1 in place of r2c.
type OneBitJaccardVerifier struct {
	kernel
	tr float64 // threshold mapped to collision-probability space
}

// jToR maps a Jaccard similarity to the 1-bit collision probability.
func jToR(j float64) float64 {
	if j < 0 {
		j = 0
	}
	if j > 1 {
		j = 1
	}
	return (1 + j) / 2
}

// rToJ inverts jToR.
func rToJ(r float64) float64 { return 2*r - 1 }

// NewOneBitJaccard builds a verifier over packed 1-bit minhash
// signatures (see minhash.PackOneBitAll) of at least p.MaxHashes bits.
func NewOneBitJaccard(sigs [][]uint64, sigBits int, p Params) (*OneBitJaccardVerifier, error) {
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
	v := &OneBitJaccardVerifier{tr: jToR(params.Threshold)}
	v.kernel = bitsKernel(sigs, v.Estimate, v.concentrated)
	v.init(params, v.probAboveThreshold)
	return v, nil
}

// probAboveThreshold computes Pr[J >= t | M(m, n)] as the ratio of
// posterior upper tails at jToR(t) and at the support floor 1/2.
func (v *OneBitJaccardVerifier) probAboveThreshold(m, n int) float64 {
	den := upperTail(0.5, m, n)
	if den <= 0 {
		return 0
	}
	return upperTail(v.tr, m, n) / den
}

// Estimate returns the MAP Jaccard estimate after M(m, n):
// R̂ = m/n clamped to [1/2, 1], transformed by rToJ.
func (v *OneBitJaccardVerifier) Estimate(m, n int) float64 {
	r := float64(m) / float64(n)
	if r < 0.5 {
		r = 0.5
	}
	if r > 1 {
		r = 1
	}
	return rToJ(r)
}

// concentrated reports whether Pr[|J − Ĵ| < δ | M(m, n)] >= 1 − γ,
// evaluated in collision-probability space.
func (v *OneBitJaccardVerifier) concentrated(m, n int) bool {
	den := upperTail(0.5, m, n)
	if den <= 0 {
		return true
	}
	est := v.Estimate(m, n)
	lo := jToR(est - v.params.Delta)
	hi := jToR(est + v.params.Delta)
	if lo < 0.5 {
		lo = 0.5
	}
	num := upperTail(lo, m, n) - upperTail(hi, m, n)
	return num/den >= 1-v.params.Gamma
}
