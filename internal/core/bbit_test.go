package core

import (
	"math"
	"testing"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

func TestJToRTransforms(t *testing.T) {
	if got := jToR(0); got != 0.5 {
		t.Errorf("jToR(0) = %v", got)
	}
	if got := jToR(1); got != 1 {
		t.Errorf("jToR(1) = %v", got)
	}
	if got := jToR(-2); got != 0.5 {
		t.Errorf("jToR clamps below: %v", got)
	}
	if got := jToR(2); got != 1 {
		t.Errorf("jToR clamps above: %v", got)
	}
	for _, j := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := rToJ(jToR(j)); math.Abs(got-j) > 1e-12 {
			t.Errorf("rToJ(jToR(%v)) = %v", j, got)
		}
	}
}

func TestPackOneBitMatchRateApproximatesCollisionLaw(t *testing.T) {
	// For Jaccard J, 1-bit hashes must agree at rate ≈ (1+J)/2.
	const hashes = 8192
	fam := minhash.NewFamily(hashes, 17)
	a := vector.New([]vector.Entry{{Ind: 1, Val: 1}, {Ind: 2, Val: 1}, {Ind: 3, Val: 1}, {Ind: 4, Val: 1}})
	b := vector.New([]vector.Entry{{Ind: 3, Val: 1}, {Ind: 4, Val: 1}, {Ind: 5, Val: 1}, {Ind: 6, Val: 1}})
	j := vector.Jaccard(a, b) // 2/6
	pa := minhash.PackOneBit(fam.Signature(a))
	pb := minhash.PackOneBit(fam.Signature(b))
	got := float64(countMatches(pa, pb, hashes)) / hashes
	want := (1 + j) / 2
	if math.Abs(got-want) > 0.02 {
		t.Errorf("1-bit collision rate %v, want %v", got, want)
	}
}

func countMatches(a, b []uint64, bits int) int {
	n := 0
	for i := 0; i < bits; i++ {
		if (a[i/64]>>(i%64))&1 == (b[i/64]>>(i%64))&1 {
			n++
		}
	}
	return n
}

func TestOneBitJaccardEndToEnd(t *testing.T) {
	// Full pipeline with 1-bit signatures: recall and accuracy should
	// track the full-minhash verifier, with 32x smaller signatures.
	c := testutil.SmallBinaryCorpus(t, 400, 51)
	th := 0.5
	cands, err := allpairs.CandidatesMeasure(c, exact.Jaccard, th)
	if err != nil {
		t.Fatal(err)
	}
	const hashes = 2048 // 1-bit hashes are cheap; use plenty
	fam := minhash.NewFamily(hashes, 52)
	sigs := minhash.PackOneBitAll(fam.SignatureAll(c))
	v, err := NewOneBitJaccard(sigs, hashes, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Search(c, exact.Jaccard, th)
	if len(truth) < 20 {
		t.Fatalf("corpus too sparse: %d true pairs", len(truth))
	}
	out, st := verifySeq(t, v, cands)
	if recall := testutil.Recall(out, truth); recall < 0.9 {
		t.Errorf("1-bit recall = %v", recall)
	}
	bad := 0
	for _, r := range out {
		if math.Abs(vector.Jaccard(c.Vecs[r.A], c.Vecs[r.B])-r.Sim) >= 0.05 {
			bad++
		}
	}
	if len(out) > 0 {
		if frac := float64(bad) / float64(len(out)); frac > 0.2 {
			t.Errorf("%v of 1-bit estimates off by >= δ", frac)
		}
	}
	if st.Pruned+st.Accepted != st.Candidates {
		t.Errorf("accounting broken: %+v", st)
	}
}

func TestOneBitJaccardLite(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 300, 53)
	th := 0.5
	cands, err := allpairs.CandidatesMeasure(c, exact.Jaccard, th)
	if err != nil {
		t.Fatal(err)
	}
	fam := minhash.NewFamily(512, 54)
	sigs := minhash.PackOneBitAll(fam.SignatureAll(c))
	v, err := NewOneBitJaccard(sigs, 512, Params{
		Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Search(c, exact.Jaccard, th)
	out, _ := verifyLiteSeq(t, v, cands, 256, func(a, b int32) float64 {
		return vector.Jaccard(c.Vecs[a], c.Vecs[b])
	})
	tm := testutil.ResultKeySet(truth)
	for _, r := range out {
		if _, ok := tm[r.Pair().Key()]; !ok {
			t.Fatalf("1-bit Lite emitted false positive %v", r)
		}
	}
	if recall := testutil.Recall(out, truth); recall < 0.9 {
		t.Errorf("1-bit Lite recall = %v", recall)
	}
}

func TestOneBitVerifierConstructorRejects(t *testing.T) {
	ok := Params{Threshold: 0.5, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05}
	if _, err := NewOneBitJaccard(nil, 128, ok); err == nil {
		t.Error("empty signatures accepted")
	}
	if _, err := NewOneBitJaccard([][]uint64{{0}}, 128, ok); err == nil {
		t.Error("short signature accepted")
	}
}

func TestOneBitDisjointPairPrunedIdenticalAccepted(t *testing.T) {
	fam := minhash.NewFamily(512, 55)
	a := vector.New([]vector.Entry{{Ind: 1, Val: 1}, {Ind: 2, Val: 1}, {Ind: 3, Val: 1}})
	b := vector.New([]vector.Entry{{Ind: 7, Val: 1}, {Ind: 8, Val: 1}, {Ind: 9, Val: 1}})
	sigs := minhash.PackOneBitAll([][]uint32{fam.Signature(a), fam.Signature(b), fam.Signature(a)})
	v, err := NewOneBitJaccard(sigs, 512, Params{
		Threshold: 0.8, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, st := verifySeq(t, v, []pair.Pair{pair.Make(0, 1), pair.Make(0, 2)})
	if st.Pruned != 1 {
		t.Errorf("disjoint pair not pruned: %+v", st)
	}
	if len(out) != 1 || out[0].Pair() != pair.Make(0, 2) || out[0].Sim < 0.9 {
		t.Errorf("identical pair not accepted with high estimate: %v", out)
	}
}
