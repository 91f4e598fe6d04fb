package core

import (
	"fmt"

	"bayeslsh/internal/sighash"
	"bayeslsh/internal/stats"
)

// CosineVerifier is the §4.2 instantiation of BayesLSH: packed
// random-hyperplane bit signatures and a uniform prior over the
// collision probability r = 1 − θ/π ∈ [0.5, 1]. All inference happens
// in r-space (bitsVerifier), and results are transformed back to
// cosine space with r2c(r) = cos(π(1−r)).
type CosineVerifier struct{ bitsVerifier }

// NewCosine builds a verifier over packed bit signatures of at least
// p.MaxHashes bits (sigBits is the usable signature length in bits).
func NewCosine(sigs [][]uint64, sigBits int, p Params) (*CosineVerifier, error) {
	v := new(CosineVerifier)
	if err := v.setup(sigs, sigBits, p, "cosine", sighash.CosineToR, sighash.RToCosine); err != nil {
		return nil, err
	}
	return v, nil
}

// bitsVerifier is the inference of the verifiers over packed bit
// signatures (cosine hyperplane bits, 1-bit minhashes), whose hashes
// collide with a probability r ∈ [0.5, 1] under a uniform prior: the
// posterior after M(m, n) is proportional to r^m (1−r)^(n−m)
// truncated to [0.5, 1], and hashes are compared by XOR + popcount.
// toR maps a similarity to r-space and fromR maps back.
type bitsVerifier struct {
	kernel
	tr         float64 // threshold mapped to r-space
	toR, fromR func(float64) float64
}

// setup validates p against the signatures and builds the kernel.
func (v *bitsVerifier) setup(sigs [][]uint64, sigBits int, p Params, kind string, toR, fromR func(float64) float64) error {
	if len(sigs) == 0 {
		return fmt.Errorf("core: no signatures")
	}
	params, err := p.withDefaults(sigBits)
	if err != nil {
		return err
	}
	for i, s := range sigs {
		if len(s)*64 < params.MaxHashes {
			return fmt.Errorf("core: signature %d has %d bits, need %d", i, len(s)*64, params.MaxHashes)
		}
	}
	v.tr, v.toR, v.fromR = toR(params.Threshold), toR, fromR
	v.kernel = kernel{
		stored: func(id int32) QuerySig { return QuerySig{Bits: sigs[id]} },
		// A round inside word 0 (rounds 1–2 at K = 32) reads the
		// partners' first words from the column when the query carries
		// one; every other round reads the rows.
		qmatchAll: func(q *QuerySig, ids []int32, from, to int, m []int32) {
			if q.col != nil && to <= 64 {
				sighash.MatchCountsColumn(q.Bits[0], q.col, ids, from, to, m)
				return
			}
			sighash.MatchCounts(q.Bits, sigs, ids, from, to, m)
		},
		estimate:     v.Estimate,
		concentrated: v.concentrated,
	}
	// Word 0 of every signature is filled once the watermark covers
	// it, and a filled word never changes, so the column can be copied
	// once, by the first rows verification. Query verification never
	// builds it, so serving touches signature rows only on demand.
	if params.Watermark >= 64 {
		v.firstWords = func() []uint64 { return sighash.Column(sigs) }
	}
	v.init(params, kind, uniform, v.probAboveThreshold)
	return nil
}

// upperTail returns Pr[R >= x] under the untruncated Beta(m+1, n−m+1)
// law, computed as I_{1−x}(n−m+1, m+1) to avoid the cancellation of
// 1 − I_x(·) when the tail is tiny.
func upperTail(x float64, m, n int) float64 {
	return stats.RegIncBeta(1-x, float64(n-m+1), float64(m+1))
}

// probAboveThreshold computes Pr[S >= t | M(m, n)] (Equation 3 for the
// bit instantiations):
//
//	(B₁ − B_tr) / (B₁ − B_0.5)  with B_x = B_x(m+1, n−m+1),
//
// i.e. the ratio of upper tails at tr and at 0.5 of the truncated
// posterior.
func (v *bitsVerifier) probAboveThreshold(m, n int) float64 {
	den := upperTail(0.5, m, n)
	if den <= 0 {
		// The posterior mass on [0.5, 1] has underflowed entirely;
		// such a pair is nowhere near the threshold.
		return 0
	}
	return upperTail(v.tr, m, n) / den
}

// Estimate returns the MAP similarity estimate after M(m, n)
// (Equation 4): R̂ = m/n clamped to the support [0.5, 1], mapped back
// from r-space.
func (v *bitsVerifier) Estimate(m, n int) float64 {
	r := float64(m) / float64(n)
	if r < 0.5 {
		r = 0.5
	}
	if r > 1 {
		r = 1
	}
	return v.fromR(r)
}

// concentrated reports whether Pr[|S − Ŝ| < δ | M(m, n)] >= 1 − γ
// (Equation 6 for the bit instantiations), evaluated in r-space as
// (B_{toR(Ŝ+δ)} − B_{toR(Ŝ−δ)}) / (B₁ − B_0.5).
func (v *bitsVerifier) concentrated(m, n int) bool {
	den := upperTail(0.5, m, n)
	if den <= 0 {
		return true // degenerate; the pair will have been pruned
	}
	est := v.Estimate(m, n)
	lo := v.toR(est - v.params.Delta)
	hi := v.toR(est + v.params.Delta)
	if lo < 0.5 {
		lo = 0.5
	}
	num := upperTail(lo, m, n) - upperTail(hi, m, n)
	return num/den >= 1-v.params.Gamma
}
