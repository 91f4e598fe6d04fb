package lshindex

import (
	"context"
	"math"
	"testing"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/testutil"
)

func TestNumTablesMultiProbeSmallerThanPlain(t *testing.T) {
	for _, c := range []struct {
		p   float64
		k   int
		eps float64
	}{{0.7, 8, 0.03}, {0.85, 8, 0.03}, {0.5, 4, 0.05}} {
		plain := NumTables(c.p, c.k, c.eps)
		mp := NumTablesMultiProbe(c.p, c.k, c.eps)
		if mp >= plain {
			t.Errorf("p=%v k=%d: multiprobe needs %d tables, plain %d", c.p, c.k, mp, plain)
		}
		// Formula check.
		pk := math.Pow(c.p, float64(c.k))
		p1 := pk + float64(c.k)*math.Pow(c.p, float64(c.k-1))*(1-c.p)
		want := int(math.Ceil(math.Log(c.eps) / math.Log(1-p1)))
		if mp != want {
			t.Errorf("NumTablesMultiProbe = %d, want %d", mp, want)
		}
	}
	if got := NumTablesMultiProbe(0, 4, 0.03); got != 1 {
		t.Errorf("p=0 should give 1 table, got %d", got)
	}
	if got := NumTablesMultiProbe(1, 4, 0.03); got != 1 {
		t.Errorf("p=1 should give 1 table, got %d", got)
	}
}

func TestNumTablesMultiProbePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad args did not panic")
		}
	}()
	NumTablesMultiProbe(0.5, 0, 0.03)
}

func TestMultiProbeSupersetOfPlainBands(t *testing.T) {
	// With identical k and l, multi-probe candidates must be a
	// superset of plain banding candidates.
	c := testutil.SmallTextCorpus(t, 200, 41)
	fam := sighash.NewFamily(c.Dim, 128, 3)
	sigs := fam.SignatureAll(c)
	plain, err := CandidatesBitsCtx(context.Background(), sigs, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := CandidatesBitsMultiProbeCtx(context.Background(), sigs, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := testutil.PairKeySet(mp)
	for _, p := range plain {
		if _, ok := mk[p.Key()]; !ok {
			t.Fatalf("plain candidate %v missing from multi-probe set", p)
		}
	}
	if len(mp) <= len(plain) {
		t.Errorf("multi-probe (%d) not larger than plain (%d)", len(mp), len(plain))
	}
}

func TestMultiProbeRecallWithFewerTables(t *testing.T) {
	// Multi-probe with its (smaller) table budget must still reach
	// high recall against exact ground truth.
	c := testutil.SmallTextCorpus(t, 300, 42)
	th := 0.7
	k := 8
	p := sighash.CosineToR(th)
	l := NumTablesMultiProbe(p, k, 0.03)
	if plain := NumTables(p, k, 0.03); l >= plain {
		t.Fatalf("multiprobe tables %d not smaller than plain %d", l, plain)
	}
	fam := sighash.NewFamily(c.Dim, k*l, 43)
	sigs := fam.SignatureAll(c)
	cands, err := CandidatesBitsMultiProbeCtx(context.Background(), sigs, k, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.Search(c, exact.Cosine, th)
	if len(truth) == 0 {
		t.Fatal("corpus has no similar pairs")
	}
	ck := testutil.PairKeySet(cands)
	hit := 0
	for _, r := range truth {
		if _, ok := ck[r.Pair().Key()]; ok {
			hit++
		}
	}
	if recall := float64(hit) / float64(len(truth)); recall < 0.9 {
		t.Errorf("multi-probe recall = %v (%d/%d)", recall, hit, len(truth))
	}
}

func TestMultiProbeValidation(t *testing.T) {
	if _, err := CandidatesBitsMultiProbeCtx(context.Background(), [][]uint64{{0}}, 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := CandidatesBitsMultiProbeCtx(context.Background(), [][]uint64{{0}}, 65, 1, 1); err == nil {
		t.Error("k=65 accepted")
	}
	if _, err := CandidatesBitsMultiProbeCtx(context.Background(), [][]uint64{{0}}, 8, 0, 1); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := CandidatesBitsMultiProbeCtx(context.Background(), [][]uint64{{0}}, 32, 9, 1); err == nil {
		t.Error("short signatures accepted")
	}
}

func TestMultiProbeHammingOneCollides(t *testing.T) {
	// Signatures whose single band differs in exactly one bit must
	// become candidates under multi-probe (and not under plain bands).
	sigs := [][]uint64{{0b10110010}, {0b10110011}, {0b01001100}}
	plain, err := CandidatesBitsCtx(context.Background(), sigs, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plain {
		if p.A == 0 && p.B == 1 {
			t.Fatal("plain banding should not collide Hamming-1 keys")
		}
	}
	mp, err := CandidatesBitsMultiProbeCtx(context.Background(), sigs, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	found01 := false
	for _, p := range mp {
		if p.A == 0 && p.B == 1 {
			found01 = true
		}
		if p.B == 2 {
			t.Fatalf("distant keys collided: %v", p)
		}
	}
	if !found01 {
		t.Error("Hamming-1 neighbors did not collide under multi-probe")
	}
}
