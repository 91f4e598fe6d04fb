package lshindex

import "math"

// Multi-probe LSH (Lv, Josephson, Wang, Charikar, Li, VLDB 2007 —
// reference [17] of the BayesLSH paper) trades probes for tables:
// besides its own bucket, each signature also probes the buckets
// whose band keys differ in exactly one bit. A pair then collides in
// a band if at most one of the band's k bits disagrees, which happens
// with probability
//
//	p₁ = p^k + k·p^(k−1)·(1−p)
//
// per band for per-hash collision probability p, so far fewer bands
// reach the same false negative rate — at the cost of k extra probes
// per signature per band.

// NumTablesMultiProbe returns l = ⌈log ε / log(1 − p₁)⌉ for 1-step
// multi-probe banding, saturated like NumTables.
func NumTablesMultiProbe(p float64, k int, eps float64) int {
	if p <= 0 || p >= 1 {
		return 1
	}
	if k <= 0 || eps <= 0 || eps >= 1 {
		panic("lshindex: NumTablesMultiProbe needs k > 0 and eps in (0,1)")
	}
	p1 := multiProbeBandProb(p, k)
	if p1 >= 1 {
		return 1
	}
	return tablesFor(eps, p1)
}

// multiProbeBandProb is p₁, the probability that a pair with per-hash
// collision probability p collides in one band of k bits under 1-step
// multi-probe.
func multiProbeBandProb(p float64, k int) float64 {
	return math.Pow(p, float64(k)) + float64(k)*math.Pow(p, float64(k-1))*(1-p)
}

// MissRateMultiProbe returns (1 − p₁)^l, the probability that 1-step
// multi-probe banding over l tables of k bits misses a pair with
// per-hash collision probability p: the rate NumTablesMultiProbe
// inverts, at or below eps whenever l is the count it returned.
func MissRateMultiProbe(p float64, k, l int) float64 {
	return math.Pow(max(0, 1-multiProbeBandProb(p, k)), float64(l))
}
