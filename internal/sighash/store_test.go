package sighash

import (
	"testing"

	"bayeslsh/internal/rng"
	"bayeslsh/internal/vector"
)

func storeCorpus(n, dim int, seed uint64) *vector.Collection {
	src := rng.New(seed)
	c := &vector.Collection{Dim: dim}
	for i := 0; i < n; i++ {
		var es []vector.Entry
		l := src.Intn(10) + 3
		for j := 0; j < l; j++ {
			es = append(es, vector.Entry{Ind: uint32(src.Intn(dim)), Val: src.NormFloat64()})
		}
		c.Vecs = append(c.Vecs, vector.New(es))
	}
	return c
}

func TestBlockFamilyPanicsOnBadArgs(t *testing.T) {
	for _, args := range [][3]int{{0, 128, 128}, {4, 0, 128}, {4, 128, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBlockFamily%v did not panic", args)
				}
			}()
			NewBlockFamily(args[0], args[1], args[2], 1)
		}()
	}
}

func TestBlockFamilyRoundsUpGeometry(t *testing.T) {
	f := NewBlockFamily(4, 100, 100, 1)
	if f.BlockBits()%64 != 0 {
		t.Errorf("blockBits %d not word aligned", f.BlockBits())
	}
	if f.MaxBits()%f.BlockBits() != 0 {
		t.Errorf("maxBits %d not a multiple of blockBits %d", f.MaxBits(), f.BlockBits())
	}
}

func TestStoreLazyAndIncremental(t *testing.T) {
	c := storeCorpus(20, 50, 7)
	fam := NewBlockFamily(50, 512, 128, 3)
	s := NewStore(c, fam)
	if s.FilledBits(0) != 0 {
		t.Fatal("store not lazy")
	}
	s.Ensure(0, 100)
	if got := s.FilledBits(0); got != 128 {
		t.Errorf("FilledBits after Ensure(100) = %d, want 128 (one block)", got)
	}
	if s.FilledBits(1) != 0 {
		t.Error("Ensure touched another vector")
	}
	s.Ensure(0, 512)
	if got := s.FilledBits(0); got != 512 {
		t.Errorf("FilledBits = %d, want 512", got)
	}
	if s.Elapsed() <= 0 {
		t.Error("no hashing time recorded")
	}
}

func TestStoreEnsureBeyondCapacityPanics(t *testing.T) {
	c := storeCorpus(2, 10, 1)
	s := NewStore(c, NewBlockFamily(10, 128, 128, 1))
	defer func() {
		if recover() == nil {
			t.Error("Ensure beyond capacity did not panic")
		}
	}()
	s.Ensure(0, 256)
}

// TestStoreOrderIndependent verifies that signatures do not depend on
// the order in which blocks are materialized across vectors.
func TestStoreOrderIndependent(t *testing.T) {
	c := storeCorpus(10, 40, 9)
	fam1 := NewBlockFamily(40, 384, 128, 5)
	s1 := NewStore(c, fam1)
	ensureAll(t, s1, 384)

	fam2 := NewBlockFamily(40, 384, 128, 5)
	s2 := NewStore(c, fam2)
	// Fill in a scrambled, incremental order.
	s2.Ensure(7, 384)
	s2.Ensure(3, 128)
	s2.Ensure(3, 384)
	ensureAll(t, s2, 256)
	ensureAll(t, s2, 384)

	for id := range c.Vecs {
		a, b := s1.Sigs()[id], s2.Sigs()[id]
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("vector %d word %d differs between fill orders", id, w)
			}
		}
	}
}

// TestStoreMatchesLSHProperty: collision rate of store signatures
// approximates the angular similarity.
func TestStoreMatchesLSHProperty(t *testing.T) {
	src := rng.New(42)
	dense := func() vector.Vector {
		var es []vector.Entry
		for i := 0; i < 32; i++ {
			es = append(es, vector.Entry{Ind: uint32(i), Val: src.NormFloat64()})
		}
		return vector.New(es)
	}
	c := &vector.Collection{Dim: 32, Vecs: []vector.Vector{dense(), dense()}}
	const bits = 4096
	s := NewStore(c, NewBlockFamily(32, bits, 128, 11))
	ensureAll(t, s, bits)
	want := CosineToR(vector.Cosine(c.Vecs[0], c.Vecs[1]))
	got := float64(MatchCount(s.Sigs()[0], s.Sigs()[1], 0, bits)) / bits
	if diff := got - want; diff > 0.05 || diff < -0.05 {
		t.Errorf("store collision rate %v, want %v", got, want)
	}
}

// TestStoreExactOptionAgreesWithQuantized: a Store's signatures,
// filled through its lazy block path, agree with exact float
// projections (the float64 stream oracle) on all but a few bits.
func TestStoreExactOptionAgreesWithQuantized(t *testing.T) {
	c := storeCorpus(5, 30, 13)
	q := NewStore(c, NewBlockFamily(30, 256, 128, 17))
	ensureAll(t, q, 256)
	for id, v := range c.Vecs {
		e := oracleSignature(17, v, 2, 128, false)
		if agree := MatchCount(q.Sigs()[id], e, 0, 256); agree < 250 {
			t.Errorf("vector %d: quantized store and exact projections agree on %d/256 bits", id, agree)
		}
	}
}
