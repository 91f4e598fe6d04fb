package pair

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// referenceAscending is the map+sort answer IDSet replaces.
func referenceAscending(ids []int32) []int32 {
	seen := make(map[int32]struct{})
	for _, id := range ids {
		seen[id] = struct{}{}
	}
	out := make([]int32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fillAndRead adds ids to s and reads the set back after prefix,
// checking the sparse/dense branch when wantSparse is non-nil.
func fillAndRead(t *testing.T, s *IDSet, ids []int32, wantSparse *bool) {
	t.Helper()
	prefix := []int32{-7, -8}
	s.AddAll(ids)
	want := referenceAscending(ids)
	if s.Len() != len(want) {
		t.Fatalf("Len() = %d after adding %v, want %d", s.Len(), ids, len(want))
	}
	if wantSparse != nil && len(ids) > 0 {
		lo, hi := s.wordRange()
		if got := sparse(s.Len(), 64*(hi-lo+1)); got != *wantSparse {
			t.Fatalf("%d ids over words [%d, %d]: sparse = %v, want %v", s.Len(), lo, hi, got, *wantSparse)
		}
	}
	got := s.AppendAscending(slices.Clone(prefix))
	if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
		t.Fatalf("AppendAscending of %v = %v, want %v after %v", ids, got, want, prefix)
	}
	if s.Len() != 0 {
		t.Fatalf("set holds %d ids after AppendAscending", s.Len())
	}
	for w, word := range s.words {
		if word != 0 {
			t.Fatalf("word %d = %#x after AppendAscending", w, word)
		}
	}
}

func TestIDSetMatchesMapSort(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var s IDSet
	// Edge ids, the empty set, and duplicates.
	for _, ids := range [][]int32{
		nil,
		{0},
		{63},
		{64},
		{0, 63, 64},
		{64, 63, 0, 64, 0},
		{4095, 0, 64, 63, 4095},
	} {
		fillAndRead(t, &s, ids, nil)
	}
	if got := s.AppendAscending(nil); got != nil {
		t.Fatalf("empty set appended %v", got)
	}
	// Random multisets over spans of 1..64 words, from nearly empty to
	// every id present, so both branches run many times.
	branches := map[bool]int{}
	for trial := range 2000 {
		span := 64 * (1 + r.IntN(64))
		base := int32(64 * r.IntN(8))
		m := 1 + r.IntN(1<<r.IntN(bits.Len(uint(2*span)))) // log-uniform size
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = base + int32(r.IntN(span))
		}
		if trial%2 == 1 {
			fillAndRead(t, &s, ids, nil)
			continue
		}
		// Pin the span, so the branch follows from the distinct count.
		ids = append(ids, base, base+int32(span)-1)
		d := len(referenceAscending(ids))
		sparse := d*bits.Len(uint(d)) < span/8
		branches[sparse]++
		fillAndRead(t, &s, ids, &sparse)
	}
	if branches[true] < 100 || branches[false] < 100 {
		t.Fatalf("branches taken %v: both need exercising", branches)
	}
}

func TestIDSetCrossover(t *testing.T) {
	// Over four words, span/8 = 32, and m·bits.Len(m) = 32 at m = 8:
	// seven ids sort, eight (exactly at the rule) and nine scan.
	n := int32(256)
	for _, c := range []struct {
		m      int
		sparse bool
	}{{7, true}, {8, false}, {9, false}} {
		m, sparse := c.m, c.sparse
		if m*bits.Len(uint(m)) < int(n)/8 != sparse {
			t.Fatalf("crossover arithmetic wrong at m = %d", m)
		}
		ids := []int32{0, n - 1}
		for id := int32(1); len(ids) < m; id += 37 {
			ids = append(ids, id)
		}
		reversed := slices.Clone(ids)
		slices.Reverse(reversed)
		for _, order := range [][]int32{ids, reversed} {
			var s IDSet
			fillAndRead(t, &s, order, &sparse)
		}
	}
}

func TestIDSetReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	var s IDSet
	// A dense fill, then sparse ones far away and overlapping, then a
	// dense one again: no fill may see a previous fill's ids.
	dense := make([]int32, 0, 5000)
	for id := range int32(5000) {
		if r.IntN(3) > 0 {
			dense = append(dense, id)
		}
	}
	sparse, dense2 := true, false
	fillAndRead(t, &s, dense, &dense2)
	fillAndRead(t, &s, []int32{9000, 3, 4999}, &sparse)
	fillAndRead(t, &s, []int32{100}, nil)
	fillAndRead(t, &s, dense[:2000], &dense2)
	fillAndRead(t, &s, nil, nil)
	fillAndRead(t, &s, []int32{0, 9000}, &sparse)
}
