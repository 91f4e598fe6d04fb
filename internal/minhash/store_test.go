package minhash

import (
	"testing"

	"bayeslsh/internal/vector"
)

func storeCollection() *vector.Collection {
	return &vector.Collection{Dim: 100, Vecs: []vector.Vector{
		setVec(1, 2, 3, 4, 5),
		setVec(3, 4, 5, 6),
		{},
	}}
}

func TestMinhashStoreLazyFill(t *testing.T) {
	c := storeCollection()
	fam := NewFamily(128, 5)
	s := NewStore(c, fam, 32)
	if s.FilledHashes(0) != 0 {
		t.Fatal("store not lazy")
	}
	s.Ensure(0, 10)
	if got := s.FilledHashes(0); got != 32 {
		t.Errorf("FilledHashes = %d, want one block of 32", got)
	}
	s.Ensure(0, 128)
	if got := s.FilledHashes(0); got != 128 {
		t.Errorf("FilledHashes = %d, want 128", got)
	}
	if s.Elapsed() <= 0 {
		t.Error("no hashing time recorded")
	}
}

func TestMinhashStoreMatchesEagerFamily(t *testing.T) {
	c := storeCollection()
	fam := NewFamily(96, 9)
	s := NewStore(c, fam, 32)
	s.Ensure(0, 50) // partial first
	ensureAll(t, s, 96)
	for id, v := range c.Vecs {
		want := fam.Signature(v)
		got := s.Sigs()[id]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vector %d hash %d: store %d, eager %d", id, i, got[i], want[i])
			}
		}
	}
}

func TestMinhashStoreEmptyVectorSentinel(t *testing.T) {
	c := storeCollection()
	s := NewStore(c, NewFamily(64, 3), 32)
	s.Ensure(2, 64)
	for i, h := range s.Sigs()[2] {
		if h != Empty {
			t.Fatalf("empty vector hash %d = %d, want sentinel", i, h)
		}
	}
}

func TestMinhashStoreEnsureBeyondCapacityPanics(t *testing.T) {
	c := storeCollection()
	s := NewStore(c, NewFamily(64, 3), 32)
	defer func() {
		if recover() == nil {
			t.Error("Ensure beyond capacity did not panic")
		}
	}()
	s.Ensure(0, 65)
}

func TestMinhashStoreDefaultBlockSize(t *testing.T) {
	c := storeCollection()
	s := NewStore(c, NewFamily(64, 3), 0)
	s.Ensure(0, 1)
	if got := s.FilledHashes(0); got != 32 {
		t.Errorf("default block = %d, want 32", got)
	}
	if s.MaxHashes() != 64 {
		t.Errorf("MaxHashes = %d", s.MaxHashes())
	}
}
