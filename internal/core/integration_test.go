package core

import (
	"math"
	"testing"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// bitSigs hashes every vector of c to nbits hyperplane bits through a
// block family of 128-bit blocks seeded with seed: the signatures an
// engine's store holds.
func bitSigs(c *vector.Collection, nbits int, seed uint64) [][]uint64 {
	fam := sighash.NewBlockFamily(c.Dim, nbits, 128, seed)
	sigs := make([][]uint64, len(c.Vecs))
	for i, v := range c.Vecs {
		sigs[i] = fam.SignatureN(v, nbits)
	}
	return sigs
}

// jaccardSetup builds candidates and a verifier for a binary corpus.
func jaccardSetup(t *testing.T, n int, seed uint64, th float64) (*vector.Collection, []pair.Pair, *JaccardVerifier) {
	t.Helper()
	c := testutil.SmallBinaryCorpus(t, n, seed)
	cands, err := allpairs.CandidatesMeasure(c, exact.Jaccard, th)
	if err != nil {
		t.Fatal(err)
	}
	fam := minhash.NewFamily(512, seed+1000)
	sigs := fam.SignatureAll(c)
	prior := FitJaccardPrior(c, cands, 100, seed+2000)
	v, err := NewJaccard(sigs, prior, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cands, v
}

func TestJaccardBayesLSHRecallAndAccuracy(t *testing.T) {
	th := 0.5
	c, cands, v := jaccardSetup(t, 400, 31, th)
	truth := exact.Search(c, exact.Jaccard, th)
	if len(truth) < 20 {
		t.Fatalf("only %d true pairs; corpus too sparse for the test", len(truth))
	}
	out, st := verifySeq(t, v, cands)

	// Guarantee 1 (recall): the paper reports recall >= ~97% at ε=0.03.
	recall := testutil.Recall(out, truth)
	if recall < 0.93 {
		t.Errorf("recall = %v, want >= 0.93", recall)
	}

	// Guarantee 2 (accuracy): estimates within δ of truth except with
	// probability ~γ. Allow sampling slack: <= 3γ of output pairs off
	// by more than δ.
	bad, total := 0, 0
	for _, r := range out {
		s := vector.Jaccard(c.Vecs[r.A], c.Vecs[r.B])
		total++
		if math.Abs(s-r.Sim) >= 0.05 {
			bad++
		}
	}
	if total == 0 {
		t.Fatal("no output pairs")
	}
	if frac := float64(bad) / float64(total); frac > 0.15 {
		t.Errorf("%v of estimates off by >= δ, want <= 0.15", frac)
	}

	// Accounting must balance (AllPairs' binary candidate sets are
	// already clean — §5.2 point 7 of the paper — so most candidates
	// legitimately survive here; pruning power is asserted on noisy
	// LSH candidates in TestPruningEffectivenessOnNoisyCandidates).
	if st.Pruned+st.Accepted != st.Candidates {
		t.Errorf("accounting broken: %+v", st)
	}
}

func TestPruningEffectivenessOnNoisyCandidates(t *testing.T) {
	// Feed BayesLSH a candidate set dominated by false positives (all
	// pairs among a random subset) and verify that the vast majority
	// is pruned within a few rounds — the paper's Figure 4 behaviour.
	th := 0.5
	c, _, v := jaccardSetup(t, 300, 36, th)
	var cands []pair.Pair
	for i := int32(0); i < 150; i++ {
		for j := i + 1; j < 150; j++ {
			cands = append(cands, pair.Make(i, j))
		}
	}
	truth := exact.Search(c, exact.Jaccard, th)
	out, st := verifySeq(t, v, cands)
	if st.Pruned < int(0.9*float64(st.Candidates)) {
		t.Errorf("pruned only %d of %d noisy candidates", st.Pruned, st.Candidates)
	}
	// Pruning must not hurt recall on the pairs present in the batch.
	tm := testutil.ResultKeySet(truth)
	inBatch := 0
	for _, p := range cands {
		if _, ok := tm[p.Key()]; ok {
			inBatch++
		}
	}
	om := testutil.ResultKeySet(out)
	hit := 0
	for _, p := range cands {
		if _, ok := tm[p.Key()]; !ok {
			continue
		}
		if _, ok := om[p.Key()]; ok {
			hit++
		}
	}
	if inBatch > 0 && float64(hit)/float64(inBatch) < 0.9 {
		t.Errorf("noisy-batch recall %d/%d too low", hit, inBatch)
	}
	// The bulk of pruning happens in the first round: survivors after
	// round 0 should already be a small fraction of candidates.
	if st.SurvivorsByRound[0] > st.Candidates/2 {
		t.Errorf("first round left %d of %d candidates alive",
			st.SurvivorsByRound[0], st.Candidates)
	}
}

func TestJaccardLiteMatchesExactOnSurvivors(t *testing.T) {
	th := 0.5
	c, cands, v := jaccardSetup(t, 400, 32, th)
	truth := exact.Search(c, exact.Jaccard, th)
	out, st := verifyLiteSeq(t, v, cands, 64, func(a, b int32) float64 {
		return vector.Jaccard(c.Vecs[a], c.Vecs[b])
	})
	// Lite similarities are exact: every output pair must be a true
	// positive with the exact similarity.
	tm := testutil.ResultKeySet(truth)
	for _, r := range out {
		ts, ok := tm[r.Pair().Key()]
		if !ok {
			t.Fatalf("Lite emitted false positive %d-%d (sim %v)", r.A, r.B, r.Sim)
		}
		if math.Abs(ts-r.Sim) > 1e-12 {
			t.Fatalf("Lite similarity %v differs from exact %v", r.Sim, ts)
		}
	}
	if recall := testutil.Recall(out, truth); recall < 0.93 {
		t.Errorf("Lite recall = %v, want >= 0.93", recall)
	}
	if st.ExactVerified == 0 || st.ExactVerified > st.Candidates-st.Pruned {
		t.Errorf("ExactVerified accounting wrong: %+v", st)
	}
}

// cosineSetup builds candidates and a verifier for a weighted corpus.
func cosineSetup(t *testing.T, n int, seed uint64, th float64) (*vector.Collection, []pair.Pair, *CosineVerifier) {
	t.Helper()
	c := testutil.SmallTextCorpus(t, n, seed)
	cands, err := allpairs.Candidates(c, th)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewCosine(bitSigs(c, 2048, seed+1000), 2048, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cands, v
}

func TestCosineBayesLSHRecallAndAccuracy(t *testing.T) {
	th := 0.6
	c, cands, v := cosineSetup(t, 400, 33, th)
	truth := exact.Search(c, exact.Cosine, th)
	if len(truth) < 20 {
		t.Fatalf("only %d true pairs; corpus too sparse for the test", len(truth))
	}
	out, st := verifySeq(t, v, cands)

	if recall := testutil.Recall(out, truth); recall < 0.93 {
		t.Errorf("recall = %v, want >= 0.93", recall)
	}
	bad, total := 0, 0
	for _, r := range out {
		s := vector.Cosine(c.Vecs[r.A], c.Vecs[r.B])
		total++
		if math.Abs(s-r.Sim) >= 0.05 {
			bad++
		}
	}
	if total == 0 {
		t.Fatal("no output pairs")
	}
	if frac := float64(bad) / float64(total); frac > 0.15 {
		t.Errorf("%v of cosine estimates off by >= δ", frac)
	}
	if st.Pruned < int(0.5*float64(st.Candidates)) {
		t.Errorf("pruned only %d of %d candidates", st.Pruned, st.Candidates)
	}
}

func TestCosineLiteMatchesExactOnSurvivors(t *testing.T) {
	th := 0.6
	c, cands, v := cosineSetup(t, 400, 34, th)
	truth := exact.Search(c, exact.Cosine, th)
	out, _ := verifyLiteSeq(t, v, cands, 128, func(a, b int32) float64 {
		return vector.Cosine(c.Vecs[a], c.Vecs[b])
	})
	tm := testutil.ResultKeySet(truth)
	for _, r := range out {
		if _, ok := tm[r.Pair().Key()]; !ok {
			t.Fatalf("Lite emitted false positive %d-%d (sim %v)", r.A, r.B, r.Sim)
		}
	}
	if recall := testutil.Recall(out, truth); recall < 0.93 {
		t.Errorf("Lite recall = %v, want >= 0.93", recall)
	}
}

func TestCosineEstimateMapsRSpaceCorrectly(t *testing.T) {
	sigs := [][]uint64{make([]uint64, 32), make([]uint64, 32)}
	v, err := NewCosine(sigs, 2048, Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// All hashes agree → r = 1 → cosine 1.
	if got := v.Estimate(128, 128); math.Abs(got-1) > 1e-12 {
		t.Errorf("Estimate(n,n) = %v, want 1", got)
	}
	// Half agree → r clamped to 0.5 → cosine 0.
	if got := v.Estimate(64, 128); math.Abs(got) > 1e-12 {
		t.Errorf("Estimate(n/2,n) = %v, want 0", got)
	}
	// Below half still clamps to 0.
	if got := v.Estimate(10, 128); math.Abs(got) > 1e-12 {
		t.Errorf("Estimate(m<n/2) = %v, want 0", got)
	}
	// r = 0.75 → cosine cos(π/4).
	if got, want := v.Estimate(96, 128), math.Cos(math.Pi/4); math.Abs(got-want) > 1e-12 {
		t.Errorf("Estimate(0.75n, n) = %v, want %v", got, want)
	}
}

func TestCosineProbAboveThresholdBehaves(t *testing.T) {
	sigs := [][]uint64{make([]uint64, 32), make([]uint64, 32)}
	v, err := NewCosine(sigs, 2048, Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in m.
	prev := -1.0
	for m := 0; m <= 128; m += 8 {
		p := v.probAboveThreshold(m, 128)
		if p < prev-1e-12 {
			t.Fatalf("probAboveThreshold not monotone at m=%d: %v < %v", m, p, prev)
		}
		if p < 0 || p > 1+1e-12 {
			t.Fatalf("probAboveThreshold out of range at m=%d: %v", m, p)
		}
		prev = p
	}
	// Extreme disagreement underflows cleanly to 0.
	if p := v.probAboveThreshold(0, 2048); p != 0 {
		t.Errorf("prob with zero matches over 2048 hashes = %v, want 0", p)
	}
}

func TestFitJaccardPriorFallsBackAndLearns(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 200, 35)
	if got := FitJaccardPrior(c, nil, 50, 1); got != (stats.Beta{Alpha: 1, Beta: 1}) {
		t.Errorf("no candidates should give uniform, got %v", got)
	}
	cands, err := allpairs.CandidatesMeasure(c, exact.Jaccard, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	prior := FitJaccardPrior(c, cands, 200, 1)
	if !prior.Valid() {
		t.Errorf("learned prior invalid: %v", prior)
	}
	// Candidate similarities skew low, so the prior mean should be
	// well below 0.5 on this corpus.
	if prior.Mean() > 0.6 {
		t.Errorf("prior mean = %v, expected low", prior.Mean())
	}
}

func TestPriorSwampedByData(t *testing.T) {
	// Appendix (Figure 5): very different priors give nearly identical
	// posteriors once a few hundred hashes are observed. Compare the
	// posterior Pr[S >= t] under two extreme Beta priors.
	sharp := stats.Beta{Alpha: 9, Beta: 1} // mass near 1
	flat := stats.Beta{Alpha: 1, Beta: 9}  // mass near 0
	sf := func(prior stats.Beta, m, n int) float64 {
		return (stats.Beta{Alpha: float64(m) + prior.Alpha, Beta: float64(n-m) + prior.Beta}).SF(0.7)
	}
	// The gap between the two posteriors must shrink as data grows.
	gap128 := math.Abs(sf(sharp, 96, 128) - sf(flat, 96, 128))
	gap512 := math.Abs(sf(sharp, 384, 512) - sf(flat, 384, 512))
	gap5120 := math.Abs(sf(sharp, 3840, 5120) - sf(flat, 3840, 5120))
	if !(gap512 < gap128 && gap5120 < gap512) {
		t.Errorf("posterior gap not shrinking: %v, %v, %v", gap128, gap512, gap5120)
	}
	if gap512 > 0.25 {
		t.Errorf("posteriors too far apart after 512 hashes: gap %v", gap512)
	}
	if gap5120 > 0.02 {
		t.Errorf("posteriors still apart after 5120 hashes: gap %v", gap5120)
	}
}
