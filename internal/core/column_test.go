package core

import (
	"context"
	"fmt"
	"testing"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
)

// columnVerifiers builds a bit verifier of each kind over the
// signatures of the normalized corpus c, filled to 512 bits, for p:
// cosine over hyperplane bits and 1-bit Jaccard over packed minhashes.
func columnVerifiers(t *testing.T, c *vector.Collection, p Params) map[string]*bitsVerifier {
	t.Helper()
	bits := sighash.NewStore(c, sighash.NewBlockFamily(c.Dim, 512, 64, 9))
	if err := bits.EnsureAllCtx(context.Background(), 512, 2); err != nil {
		t.Fatal(err)
	}
	mins := minhash.NewStore(c, minhash.NewFamily(512, 11), 32)
	if err := mins.EnsureAllCtx(context.Background(), 512, 2); err != nil {
		t.Fatal(err)
	}
	cv, err := NewCosine(bits.Sigs(), 512, p)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := NewOneBitJaccard(minhash.PackOneBitAll(mins.Sigs()), 512, p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*bitsVerifier{"cosine": &cv.bitsVerifier, "onebit": &ov.bitsVerifier}
}

// TestColumnMatchesRows: a bit verifier whose watermark covers word 0
// counts the rounds inside it from the first-word column, and must
// verify exactly as one that reads every round from the rows, under
// Algorithm 1 and 2 alike. At K = 48 round 2 straddles words 0 and 1,
// so it must take the row path; at K = 64 only round 1 reads the
// column.
func TestColumnMatchesRows(t *testing.T) {
	c, cands := plantedCorpus(12, 23)
	c = c.Normalize()
	for _, k := range []int{16, 32, 48, 64} {
		params := func(watermark int) Params {
			return Params{Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: k, MaxHashes: 480 - 480%k, Watermark: watermark}
		}
		rows, column := columnVerifiers(t, c, params(0)), columnVerifiers(t, c, params(512))
		for kind, want := range rows {
			got := column[kind]
			t.Run(fmt.Sprintf("%s/K=%d", kind, k), func(t *testing.T) {
				if want.firstWords != nil || got.firstWords == nil {
					t.Fatalf("column wired at watermark 0: %v, at 512: %v", want.firstWords != nil, got.firstWords != nil)
				}
				// Both verifiers share the interned accept tables; build
				// them up front so neither run is charged for them.
				want.acceptTable(&Stats{})
				wantR, wantS := verifySeq(t, want, cands)
				gotR, gotS := verifySeq(t, got, cands)
				requireSameVerification(t, wantR, gotR, wantS, gotS)
				if len(got.col) != len(c.Vecs) {
					t.Fatalf("column holds %d words after rows verification, want %d", len(got.col), len(c.Vecs))
				}
				sim := func(a, b int32) float64 { return float64((a*7+b*3)%10) / 10 }
				wantR, wantS = verifyLiteSeq(t, want, cands, 128, sim)
				gotR, gotS = verifyLiteSeq(t, got, cands, 128, sim)
				requireSameVerification(t, wantR, gotR, wantS, gotS)
			})
		}
	}
}

// TestQueryLeavesColumnUnbuilt: the query entry points read signature
// rows only, so serving never pays for the column nor touches every
// signature's first page.
func TestQueryLeavesColumnUnbuilt(t *testing.T) {
	c, _ := plantedCorpus(6, 29)
	c = c.Normalize()
	p := Params{Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, Watermark: 512}
	for kind, v := range columnVerifiers(t, c, p) {
		ids := make([]int32, len(c.Vecs))
		for i := range ids {
			ids[i] = int32(i)
		}
		q := v.stored(0)
		v.VerifyQuery(q, ids)
		if _, _, err := v.VerifyQueryStop(q, ids, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.VerifyQueryLiteStop(q, ids, 64, func(int32) float64 { return 1 }, nil); err != nil {
			t.Fatal(err)
		}
		if v.col != nil {
			t.Fatalf("%s: query verification built the column", kind)
		}
		v.VerifyRows(pair.RowsOf([]pair.Pair{{A: 0, B: 1}}), nil)
		if len(v.col) != len(c.Vecs) {
			t.Fatalf("%s: column holds %d words after a rows call, want %d", kind, len(v.col), len(c.Vecs))
		}
	}
}
