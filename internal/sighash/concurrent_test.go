package sighash

import (
	"context"
	"sync"
	"testing"

	"bayeslsh/internal/testutil"
)

// ensureAll fills every signature of s to nbits bits on the calling
// goroutine — the one-worker oracle of the fill tests.
func ensureAll(t *testing.T, s *Store, nbits int) {
	t.Helper()
	if err := s.EnsureAllCtx(context.Background(), nbits, 1); err != nil {
		t.Fatal(err)
	}
}

// requireSameSigs fails unless got is filled to 512 bits and equals
// want bit for bit.
func requireSameSigs(t *testing.T, got, want *Store) {
	t.Helper()
	for id := range want.Sigs() {
		if got.FilledBits(int32(id)) != 512 {
			t.Fatalf("vector %d filled to %d bits", id, got.FilledBits(int32(id)))
		}
		s, p := want.Sigs()[id], got.Sigs()[id]
		for w := range s {
			if s[w] != p[w] {
				t.Fatalf("vector %d word %d: sharded %x, one worker %x", id, w, p[w], s[w])
			}
		}
	}
}

// TestConcurrentEnsureMatchesSequential checks the store's determinism
// guarantee under the engine's worker pool (and, under -race, its
// synchronization): EnsureAllCtx at any worker count and under either
// kind of never-canceled context, and a store filled from many
// goroutines with overlapping, ragged depths, equal a store filled by
// one worker bit for bit.
func TestConcurrentEnsureMatchesSequential(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 200, 41)
	fam := func() *BlockFamily { return NewBlockFamily(c.Dim, 512, 128, 5) }

	seq := NewStore(c, fam())
	ensureAll(t, seq, 512)

	for name, ctx := range testutil.Contexts(t) {
		for _, workers := range []int{1, 2, 4, 7} {
			st := NewStore(c, fam())
			if err := st.EnsureAllCtx(ctx, 512, workers); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			requireSameSigs(t, st, seq)
		}
	}

	par := NewStore(c, fam())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Overlapping ranges and depths across goroutines.
			depth := 128 * (g%4 + 1)
			for id := range par.Sigs() {
				par.Ensure(int32(id), depth)
			}
		}(g)
	}
	wg.Wait()
	if err := par.EnsureAllCtx(context.Background(), 512, 4); err != nil {
		t.Fatal(err)
	}
	requireSameSigs(t, par, seq)
}
