package core

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
// truncated-support machinery of the cosine instantiation
// (bitsVerifier) with the linear transform J = 2r − 1 in place of r2c.
type OneBitJaccardVerifier struct{ bitsVerifier }

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
	v := new(OneBitJaccardVerifier)
	if err := v.setup(sigs, sigBits, p, "onebit", jToR, rToJ); err != nil {
		return nil, err
	}
	return v, nil
}
