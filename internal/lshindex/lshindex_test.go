package lshindex

import (
	"context"
	"math"
	"testing"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/testutil"
)

func TestNumTablesFormula(t *testing.T) {
	// l = ceil(log eps / log(1 - p^k))
	cases := []struct {
		p    float64
		k    int
		eps  float64
		want int
	}{
		{0.5, 2, 0.03, int(math.Ceil(math.Log(0.03) / math.Log(1-0.25)))},
		{0.9, 4, 0.03, int(math.Ceil(math.Log(0.03) / math.Log(1-math.Pow(0.9, 4))))},
		{0.7, 3, 0.05, int(math.Ceil(math.Log(0.05) / math.Log(1-math.Pow(0.7, 3))))},
	}
	for _, c := range cases {
		if got := NumTables(c.p, c.k, c.eps); got != c.want {
			t.Errorf("NumTables(%v,%d,%v) = %d, want %d", c.p, c.k, c.eps, got, c.want)
		}
	}
	if got := NumTables(0, 3, 0.03); got != 1 {
		t.Errorf("p=0 should give 1 table, got %d", got)
	}
	if got := NumTables(1, 3, 0.03); got != 1 {
		t.Errorf("p=1 should give 1 table, got %d", got)
	}
}

// TestNumTablesSaturates pins the table count's behaviour where p^k is
// too small for 1 − p^k to differ from 1: it must saturate, not fall
// back to one table, so the count never increases with p.
func TestNumTablesSaturates(t *testing.T) {
	for _, c := range []struct {
		p float64
		k int
	}{{0.5, 64}, {0.2, 32}} {
		if got := NumTables(c.p, c.k, 0.03); got < 32 {
			t.Errorf("NumTables(%v, %d, 0.03) = %d, want >= 32", c.p, c.k, got)
		}
	}
	ps := []float64{1e-300, 1e-20, 1e-10, 1e-5}
	for i := 1; i < 1000; i++ {
		ps = append(ps, float64(i)/1000)
	}
	for name, f := range map[string]func(float64, int, float64) int{
		"plain": NumTables, "multiprobe": NumTablesMultiProbe,
	} {
		for k := 1; k <= 64; k++ {
			prev := math.MaxInt
			for _, p := range ps {
				l := f(p, k, 0.03)
				if l < 1 || l > prev {
					t.Fatalf("%s k=%d: l(%v) = %d after %d", name, k, p, l, prev)
				}
				prev = l
			}
		}
	}
}

func TestNumTablesPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { NumTables(0.5, 0, 0.03) },
		func() { NumTables(0.5, 2, 0) },
		func() { NumTables(0.5, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCandidatesBitsRecall(t *testing.T) {
	// Pairs above the threshold should almost all be generated when l
	// is chosen by the ε formula.
	c := testutil.SmallTextCorpus(t, 300, 21)
	th := 0.7
	k := 8
	p := sighash.CosineToR(th)
	l := NumTables(p, k, 0.03)
	fam := sighash.NewFamily(c.Dim, k*l, 77)
	sigs := fam.SignatureAll(c)
	cands, err := CandidatesBitsCtx(context.Background(), sigs, k, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Search(c, exact.Cosine, th)
	if len(truth) == 0 {
		t.Fatal("test corpus has no similar pairs; regenerate with different seed")
	}
	ck := testutil.PairKeySet(cands)
	hit := 0
	for _, r := range truth {
		if _, ok := ck[r.Pair().Key()]; ok {
			hit++
		}
	}
	recall := float64(hit) / float64(len(truth))
	if recall < 0.9 {
		t.Errorf("bit-LSH recall = %v (%d/%d), want >= 0.9", recall, hit, len(truth))
	}
}

func TestCandidatesMinhashRecall(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 300, 22)
	th := 0.5
	k := 2
	l := NumTables(th, k, 0.03)
	fam := minhash.NewFamily(k*l, 88)
	sigs := fam.SignatureAll(c)
	cands, err := CandidatesMinhashCtx(context.Background(), sigs, k, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Search(c, exact.Jaccard, th)
	if len(truth) == 0 {
		t.Fatal("test corpus has no similar pairs; regenerate with different seed")
	}
	ck := testutil.PairKeySet(cands)
	hit := 0
	for _, r := range truth {
		if _, ok := ck[r.Pair().Key()]; ok {
			hit++
		}
	}
	recall := float64(hit) / float64(len(truth))
	if recall < 0.9 {
		t.Errorf("minhash-LSH recall = %v (%d/%d), want >= 0.9", recall, hit, len(truth))
	}
}

func TestCandidatesErrorsOnShortSignatures(t *testing.T) {
	if _, err := CandidatesBitsCtx(context.Background(), [][]uint64{{0}}, 32, 3, 1); err == nil {
		t.Error("short bit signatures accepted")
	}
	if _, err := CandidatesMinhashCtx(context.Background(), [][]uint32{{1, 2}}, 2, 2, 1); err == nil {
		t.Error("short minhash signatures accepted")
	}
	if _, err := CandidatesBitsCtx(context.Background(), [][]uint64{{0}}, 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := CandidatesBitsCtx(context.Background(), [][]uint64{{0}}, 65, 1, 1); err == nil {
		t.Error("k=65 accepted")
	}
	if _, err := CandidatesBitsCtx(context.Background(), [][]uint64{{0}}, 8, 0, 1); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := CandidatesMinhashCtx(context.Background(), [][]uint32{{1, 2}}, 0, 1, 1); err == nil {
		t.Error("minhash k=0 accepted")
	}
	if _, err := CandidatesMinhashCtx(context.Background(), [][]uint32{{1, 2}}, 1, 0, 1); err == nil {
		t.Error("minhash l=0 accepted")
	}
}

func TestCandidatesBitsNoDuplicatesNoSelf(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 150, 23)
	fam := sighash.NewFamily(c.Dim, 64, 5)
	sigs := fam.SignatureAll(c)
	cands, err := CandidatesBitsCtx(context.Background(), sigs, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, p := range cands {
		if p.A == p.B {
			t.Fatalf("self pair %v", p)
		}
		if p.A > p.B {
			t.Fatalf("unnormalized pair %v", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p.Key()] = true
	}
}

func TestIdenticalSignaturesAlwaysCandidates(t *testing.T) {
	sigs := [][]uint64{{0xdeadbeef}, {0xdeadbeef}, {0x12345678}}
	cands, err := CandidatesBitsCtx(context.Background(), sigs, 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range cands {
		if p.A == 0 && p.B == 1 {
			found = true
		}
	}
	if !found {
		t.Error("identical signatures did not collide")
	}
}

func TestBitsBandExtraction(t *testing.T) {
	sig := []uint64{0xffffffff00000000, 0x00000000ffffffff}
	if got := bitsBand(sig, 0, 32); got != 0 {
		t.Errorf("band[0:32] = %x", got)
	}
	if got := bitsBand(sig, 32, 32); got != 0xffffffff {
		t.Errorf("band[32:64] = %x", got)
	}
	// Straddling a word boundary.
	if got := bitsBand(sig, 48, 32); got != 0xffff_ffff {
		t.Errorf("band[48:80] = %x", got)
	}
	if got := bitsBand(sig, 96, 32); got != 0 {
		t.Errorf("band[96:128] = %x", got)
	}
}
