package core

import (
	"context"
	"testing"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
)

// TestLazyHashingOnlyDeepensForSurvivors wires a CosineVerifier to a
// lazy signature store and checks the paper's claim that pruned pairs
// never force deep hashing: vectors appearing only in clearly
// dissimilar pairs must stay at one block of hashes, while accepted
// pairs' vectors are hashed deeper.
func TestLazyHashingOnlyDeepensForSurvivors(t *testing.T) {
	src := rng.New(5)
	const dim = 256
	dense := func(seed vector.Vector, mutate int) vector.Vector {
		if mutate == 0 {
			return seed.Clone()
		}
		out := seed.Clone()
		for i := 0; i < mutate; i++ {
			out.Val[src.Intn(out.Len())] = src.NormFloat64()
		}
		return out
	}
	var base vector.Vector
	{
		var es []vector.Entry
		for i := 0; i < 64; i++ {
			es = append(es, vector.Entry{Ind: uint32(i), Val: src.NormFloat64()})
		}
		base = vector.New(es)
	}
	other := func() vector.Vector {
		var es []vector.Entry
		for i := 0; i < 64; i++ {
			es = append(es, vector.Entry{Ind: uint32(i + 128), Val: src.NormFloat64()})
		}
		return vector.New(es)
	}
	c := &vector.Collection{Dim: dim, Vecs: []vector.Vector{
		base,           // 0
		dense(base, 2), // 1: very similar to 0 → accepted
		other(),        // 2: disjoint support → pruned round 1
		other(),        // 3: disjoint support → pruned round 1
	}}
	store := sighash.NewStore(c, sighash.NewBlockFamily(dim, 1024, 128, 9))
	v, err := NewCosine(store.Sigs(), store.MaxBits(), Params{
		Threshold: 0.9, Epsilon: 0.03, Delta: 0.02, Gamma: 0.03,
		Ensure: store.Ensure,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, st := verifySeq(t, v, []pair.Pair{pair.Make(0, 1), pair.Make(2, 3)})
	if len(out) != 1 || out[0].Pair() != pair.Make(0, 1) {
		t.Fatalf("expected only the similar pair accepted, got %v (stats %+v)", out, st)
	}
	// The dissimilar pair's vectors must have been hashed one block
	// only; the similar pair needed more for the tight δ=0.02.
	if got := store.FilledBits(2); got != 128 {
		t.Errorf("pruned vector hashed to %d bits, want 128", got)
	}
	if got := store.FilledBits(3); got != 128 {
		t.Errorf("pruned vector hashed to %d bits, want 128", got)
	}
	if got := store.FilledBits(0); got <= 128 {
		t.Errorf("accepted vector hashed to only %d bits", got)
	}
}

// TestVerifyWithAndWithoutEnsureAgree: the Ensure hook must not change
// results, only when hashing happens.
func TestVerifyWithAndWithoutEnsureAgree(t *testing.T) {
	src := rng.New(11)
	const dim = 128
	c := &vector.Collection{Dim: dim}
	for i := 0; i < 30; i++ {
		var es []vector.Entry
		for j := 0; j < 32; j++ {
			es = append(es, vector.Entry{Ind: uint32(src.Intn(dim)), Val: src.NormFloat64()})
		}
		c.Vecs = append(c.Vecs, vector.New(es))
	}
	var cands []pair.Pair
	for i := int32(0); i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			cands = append(cands, pair.Make(i, j))
		}
	}
	params := Params{Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.05}

	lazyStore := sighash.NewStore(c, sighash.NewBlockFamily(dim, 512, 128, 21))
	lazyParams := params
	lazyParams.Ensure = lazyStore.Ensure
	lazyV, err := NewCosine(lazyStore.Sigs(), lazyStore.MaxBits(), lazyParams)
	if err != nil {
		t.Fatal(err)
	}
	lazyOut, _ := verifySeq(t, lazyV, cands)

	eagerStore := sighash.NewStore(c, sighash.NewBlockFamily(dim, 512, 128, 21))
	if err := eagerStore.EnsureAllCtx(context.Background(), 512, 1); err != nil {
		t.Fatal(err)
	}
	eagerV, err := NewCosine(eagerStore.Sigs(), eagerStore.MaxBits(), params)
	if err != nil {
		t.Fatal(err)
	}
	eagerOut, _ := verifySeq(t, eagerV, cands)

	if len(lazyOut) != len(eagerOut) {
		t.Fatalf("lazy %d results, eager %d", len(lazyOut), len(eagerOut))
	}
	for i := range lazyOut {
		if lazyOut[i] != eagerOut[i] {
			t.Fatalf("result %d differs: %v vs %v", i, lazyOut[i], eagerOut[i])
		}
	}
}

// TestWatermarkSkipsEnsure: with the store filled to a watermark, the
// round loop calls Ensure only for rounds deeper than it, on both sides
// of a row, and verifies exactly as with no watermark.
func TestWatermarkSkipsEnsure(t *testing.T) {
	c, cands := plantedCorpus(12, 23)
	c = c.Normalize()
	run := func(watermark int) ([]pair.Result, Stats, int) {
		store := sighash.NewStore(c, sighash.NewBlockFamily(c.Dim, 512, 64, 9))
		if err := store.EnsureAllCtx(context.Background(), watermark, 2); err != nil {
			t.Fatal(err)
		}
		if got := store.Watermark(); got != watermark {
			t.Fatalf("store watermark %d after filling to %d", got, watermark)
		}
		shallow := 0
		v, err := NewCosine(store.Sigs(), store.MaxBits(), Params{
			Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, Watermark: store.Watermark(),
			Ensure: func(id int32, n int) {
				if n <= watermark {
					shallow++
				}
				store.Ensure(id, n)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		v.acceptTable(&Stats{})
		out, st := verifySeq(t, v, cands)
		return out, st, shallow
	}
	want, wantSt, _ := run(0)
	got, gotSt, shallow := run(128)
	if shallow != 0 {
		t.Errorf("%d Ensure calls at or below the watermark", shallow)
	}
	requireSameVerification(t, want, got, wantSt, gotSt)
}
