package lshindex

import (
	"context"
	"testing"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
)

// randomBitSigs generates n packed signatures of nbits bits.
func randomBitSigs(n, nbits int, seed uint64) [][]uint64 {
	src := rng.New(seed)
	sigs := make([][]uint64, n)
	for i := range sigs {
		s := make([]uint64, (nbits+63)/64)
		for w := range s {
			s[w] = src.Uint64()
		}
		sigs[i] = s
	}
	return sigs
}

// randomMinSigs generates n minhash signatures of h hashes with few
// distinct values, so bucket collisions actually occur.
func randomMinSigs(n, h int, seed uint64) [][]uint32 {
	src := rng.New(seed)
	sigs := make([][]uint32, n)
	for i := range sigs {
		s := make([]uint32, h)
		for j := range s {
			s[j] = uint32(src.Intn(4))
		}
		sigs[i] = s
	}
	return sigs
}

// partnersOf maps each id to the set of ids it is paired with.
func partnersOf(ps []pair.Pair, n int) []map[int32]bool {
	m := make([]map[int32]bool, n)
	for i := range m {
		m[i] = map[int32]bool{}
	}
	for _, p := range ps {
		m[p.A][p.B] = true
		m[p.B][p.A] = true
	}
	return m
}

// requireProbeMatches asserts that probing every corpus signature
// returns exactly its batch partners plus itself, in ascending order.
func requireProbeMatches(t *testing.T, n int, probe func(id int) []int32, batch []map[int32]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		ids := probe(i)
		for j := 1; j < len(ids); j++ {
			if ids[j] <= ids[j-1] {
				t.Fatalf("probe %d: ids not strictly ascending: %v", i, ids)
			}
		}
		got := map[int32]bool{}
		self := false
		for _, id := range ids {
			if id == int32(i) {
				self = true
				continue
			}
			got[id] = true
		}
		if !self {
			t.Fatalf("probe %d: missing the probed signature's own id", i)
		}
		if len(got) != len(batch[i]) {
			t.Fatalf("probe %d: %d partners, batch %d (%v vs %v)", i, len(got), len(batch[i]), got, batch[i])
		}
		for id := range batch[i] {
			if !got[id] {
				t.Fatalf("probe %d: missing batch partner %d", i, id)
			}
		}
	}
}

// TestBitsTablesProbeMatchesCandidates checks the tables' core
// contract: probing corpus signature i yields exactly the ids that
// batch candidate generation pairs i with (plus i itself).
func TestBitsTablesProbeMatchesCandidates(t *testing.T) {
	const n, k, l = 60, 4, 6
	sigs := randomBitSigs(n, k*l, 11)
	cands, err := CandidatesBitsCtx(context.Background(), sigs, k, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tb, err := BuildBits(sigs, k, l, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		requireProbeMatches(t, n, func(i int) []int32 { return tb.Probe(sigs[i]) }, partnersOf(cands, n))
	}
}

// TestBitsTablesMultiProbeMatchesCandidates does the same for the
// 1-step multi-probe collision condition.
func TestBitsTablesMultiProbeMatchesCandidates(t *testing.T) {
	const n, k, l = 60, 5, 4
	sigs := randomBitSigs(n, k*l, 12)
	cands, err := CandidatesBitsMultiProbeCtx(context.Background(), sigs, k, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BuildBits(sigs, k, l, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	requireProbeMatches(t, n, func(i int) []int32 { return tb.Probe(sigs[i]) }, partnersOf(cands, n))
}

// TestMinhashTablesProbeMatchesCandidates checks the minhash tables
// against batch minhash banding.
func TestMinhashTablesProbeMatchesCandidates(t *testing.T) {
	const n, k, l = 50, 3, 5
	sigs := randomMinSigs(n, k*l, 13)
	cands, err := CandidatesMinhashCtx(context.Background(), sigs, k, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BuildMinhash(sigs, k, l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Bands() != l || tb.BandK() != k {
		t.Fatalf("shape accessors: %d/%d, want %d/%d", tb.Bands(), tb.BandK(), l, k)
	}
	requireProbeMatches(t, n, func(i int) []int32 { return tb.Probe(sigs[i]) }, partnersOf(cands, n))
}

// TestBuildTablesValidate checks input validation mirrors the batch
// entry points.
func TestBuildTablesValidate(t *testing.T) {
	sigs := randomBitSigs(4, 64, 1)
	if _, err := BuildBits(sigs, 8, 9, 1, false); err == nil {
		t.Fatal("expected error for too-short signatures")
	}
	if _, err := BuildMinhash(randomMinSigs(4, 6, 1), 3, 3, 1); err == nil {
		t.Fatal("expected error for too-short minhash signatures")
	}
}
