package core

import (
	"math"
	"testing"
	"testing/quick"

	"bayeslsh/internal/stats"
)

func mustJaccard(t *testing.T, prior stats.Beta, th float64) *JaccardVerifier {
	t.Helper()
	sigs := [][]uint32{make([]uint32, 512), make([]uint32, 512)}
	v, err := NewJaccard(sigs, prior, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustCosine(t *testing.T, th float64) *CosineVerifier {
	t.Helper()
	sigs := [][]uint64{make([]uint64, 32), make([]uint64, 32)}
	v, err := NewCosine(sigs, 2048, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Property: Pr[S >= t | M(m, n)] is a probability, monotone
// non-decreasing in m for every instantiation.
func TestProbAboveThresholdProperties(t *testing.T) {
	jv := mustJaccard(t, stats.Beta{Alpha: 2, Beta: 5}, 0.6)
	cv := mustCosine(t, 0.6)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%480 + 32
		m := int(mRaw) % (n + 1)
		pj := jv.probAboveThreshold(m, n)
		pc := cv.probAboveThreshold(m, n)
		if pj < 0 || pj > 1+1e-9 || math.IsNaN(pj) {
			return false
		}
		if pc < 0 || pc > 1+1e-9 || math.IsNaN(pc) {
			return false
		}
		if m < n {
			if jv.probAboveThreshold(m+1, n) < pj-1e-9 {
				return false
			}
			if cv.probAboveThreshold(m+1, n) < pc-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: estimates stay in the similarity range of their measure.
func TestEstimateRangeProperties(t *testing.T) {
	jv := mustJaccard(t, stats.Beta{Alpha: 1, Beta: 1}, 0.5)
	cv := mustCosine(t, 0.5)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%480 + 32
		m := int(mRaw) % (n + 1)
		ej := jv.Estimate(m, n)
		ec := cv.Estimate(m, n)
		return ej >= 0 && ej <= 1 && ec >= 0 && ec <= 1 &&
			!math.IsNaN(ej) && !math.IsNaN(ec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the estimate increases with the number of agreements.
func TestEstimateMonotoneInMatches(t *testing.T) {
	jv := mustJaccard(t, stats.Beta{Alpha: 1, Beta: 1}, 0.5)
	cv := mustCosine(t, 0.5)
	n := 256
	for m := 0; m < n; m++ {
		if jv.Estimate(m+1, n) < jv.Estimate(m, n)-1e-12 {
			t.Fatalf("jaccard estimate not monotone at m=%d", m)
		}
		if cv.Estimate(m+1, n) < cv.Estimate(m, n)-1e-12 {
			t.Fatalf("cosine estimate not monotone at m=%d", m)
		}
	}
}

// More hashes with the same agreement rate tighten concentration: if
// the estimate is concentrated at (m, n), it stays concentrated at
// (2m, 2n).
func TestConcentrationImprovesWithData(t *testing.T) {
	jv := mustJaccard(t, stats.Beta{Alpha: 1, Beta: 1}, 0.5)
	for _, frac := range []float64{0.6, 0.75, 0.9} {
		for _, n := range []int{64, 128, 256} {
			m := int(frac * float64(n))
			if jv.concentrated(m, n) && !jv.concentrated(2*m, 2*n) {
				t.Errorf("concentration lost when doubling data at m/n=%v, n=%d", frac, n)
			}
		}
	}
}

// The minMatches table must be non-decreasing in n for a fixed
// threshold: more hashes seen demands proportionally more agreements.
func TestMinMatchesTableMonotoneAcrossRounds(t *testing.T) {
	for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
		jv := mustJaccard(t, stats.Beta{Alpha: 1, Beta: 1}, th)
		for i := 1; i < len(jv.minM); i++ {
			if jv.minM[i] < jv.minM[i-1] {
				t.Errorf("t=%v: minMatches decreased from round %d (%d) to %d (%d)",
					th, i-1, jv.minM[i-1], i, jv.minM[i])
			}
		}
		cv := mustCosine(t, th)
		for i := 1; i < len(cv.minM); i++ {
			if cv.minM[i] < cv.minM[i-1] {
				t.Errorf("cosine t=%v: minMatches decreased at round %d", th, i)
			}
		}
	}
}

// Higher thresholds demand more matches at every round.
func TestMinMatchesIncreasesWithThreshold(t *testing.T) {
	lo := mustCosine(t, 0.5)
	hi := mustCosine(t, 0.9)
	for i := range lo.minM {
		if hi.minM[i] < lo.minM[i] {
			t.Errorf("round %d: t=0.9 requires %d matches but t=0.5 requires %d",
				i, hi.minM[i], lo.minM[i])
		}
	}
}

func mustOneBit(t *testing.T, th float64) *OneBitJaccardVerifier {
	t.Helper()
	sigs := [][]uint64{make([]uint64, 32), make([]uint64, 32)}
	v, err := NewOneBitJaccard(sigs, 2048, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The 1-bit instantiation obeys the same inference invariants as the
// Jaccard and cosine ones.
func TestOneBitInferenceProperties(t *testing.T) {
	v := mustOneBit(t, 0.5)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%480 + 32
		m := int(mRaw) % (n + 1)
		p := v.probAboveThreshold(m, n)
		e := v.Estimate(m, n)
		if p < 0 || p > 1+1e-9 || math.IsNaN(p) {
			return false
		}
		if e < 0 || e > 1 || math.IsNaN(e) {
			return false
		}
		if m < n && v.probAboveThreshold(m+1, n) < p-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// All hashes agreeing → J estimate 1; half agreeing → J estimate 0.
	if got := v.Estimate(128, 128); got != 1 {
		t.Errorf("Estimate(n,n) = %v", got)
	}
	if got := v.Estimate(64, 128); got != 0 {
		t.Errorf("Estimate(n/2,n) = %v", got)
	}
	for i := 1; i < len(v.minM); i++ {
		if v.minM[i] < v.minM[i-1] {
			t.Errorf("1-bit minMatches decreased at round %d", i)
		}
	}
}

// Known anchor from §3.2 of the paper: with a threshold of 0.8, a pair
// with only 10 matches out of the first 100 hashes is obviously
// prunable.
func TestPaperPruningAnchor(t *testing.T) {
	jv := mustJaccard(t, stats.Beta{Alpha: 1, Beta: 1}, 0.8)
	if p := jv.probAboveThreshold(10, 100); p > 1e-6 {
		t.Errorf("Pr[S>=0.8 | 10 of 100] = %v, expected ~0", p)
	}
	// And a pair matching 90 of 100 is clearly viable.
	if p := jv.probAboveThreshold(90, 100); p < 0.9 {
		t.Errorf("Pr[S>=0.8 | 90 of 100] = %v, expected high", p)
	}
}
