package minhash

import (
	"context"
	"sync"
	"testing"

	"bayeslsh/internal/testutil"
)

// ensureAll fills every signature of s to n hashes on the calling
// goroutine — the one-worker oracle of the fill tests.
func ensureAll(t *testing.T, s *Store, n int) {
	t.Helper()
	if err := s.EnsureAllCtx(context.Background(), n, 1); err != nil {
		t.Fatal(err)
	}
}

// requireSameSigs fails unless got is filled to 256 hashes and equals
// want hash for hash.
func requireSameSigs(t *testing.T, got, want *Store) {
	t.Helper()
	for id := range want.Sigs() {
		if got.FilledHashes(int32(id)) != 256 {
			t.Fatalf("vector %d filled to %d hashes", id, got.FilledHashes(int32(id)))
		}
		s, p := want.Sigs()[id], got.Sigs()[id]
		for i := range s {
			if s[i] != p[i] {
				t.Fatalf("vector %d hash %d: sharded %d, one worker %d", id, i, p[i], s[i])
			}
		}
	}
}

// TestConcurrentEnsureMatchesSequential: EnsureAllCtx at any worker
// count and under either kind of never-canceled context, and a store
// filled from many goroutines with overlapping, ragged depths, equal a
// store filled by one worker hash for hash.
func TestConcurrentEnsureMatchesSequential(t *testing.T) {
	c := testutil.SmallBinaryCorpus(t, 200, 42)

	seq := NewStore(c, NewFamily(256, 6), 32)
	ensureAll(t, seq, 256)

	for name, ctx := range testutil.Contexts(t) {
		for _, workers := range []int{1, 2, 4, 7} {
			st := NewStore(c, NewFamily(256, 6), 32)
			if err := st.EnsureAllCtx(ctx, 256, workers); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			requireSameSigs(t, st, seq)
		}
	}

	par := NewStore(c, NewFamily(256, 6), 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			depth := 32 * (g%8 + 1)
			for id := range par.Sigs() {
				par.Ensure(int32(id), depth)
			}
		}(g)
	}
	wg.Wait()
	if err := par.EnsureAllCtx(context.Background(), 256, 4); err != nil {
		t.Fatal(err)
	}
	requireSameSigs(t, par, seq)
}
