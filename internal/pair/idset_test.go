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
// checking it against the map+sort reference and that the read-out
// left both levels of the set empty.
func fillAndRead(t *testing.T, s *IDSet, ids []int32) {
	t.Helper()
	prefix := []int32{-7, -8}
	s.AddAll(ids)
	want := referenceAscending(ids)
	if s.Len() != len(want) {
		t.Fatalf("Len() = %d after adding %v, want %d", s.Len(), ids, len(want))
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
	for w, word := range s.summary {
		if word != 0 {
			t.Fatalf("summary word %d = %#x after AppendAscending", w, word)
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
		fillAndRead(t, &s, ids)
	}
	if got := s.AppendAscending(nil); got != nil {
		t.Fatalf("empty set appended %v", got)
	}
	// Random multisets over spans of 1..64 words, from nearly empty to
	// every id present.
	for range 2000 {
		span := 64 * (1 + r.IntN(64))
		base := int32(64 * r.IntN(8))
		m := 1 + r.IntN(1<<r.IntN(bits.Len(uint(2*span)))) // log-uniform size
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = base + int32(r.IntN(span))
		}
		fillAndRead(t, &s, ids)
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
	fillAndRead(t, &s, dense)
	fillAndRead(t, &s, []int32{9000, 3, 4999})
	fillAndRead(t, &s, []int32{100})
	fillAndRead(t, &s, dense[:2000])
	fillAndRead(t, &s, nil)
	fillAndRead(t, &s, []int32{0, 9000})
}

// encodeFills is the fuzz input encoding decodeFills reads: each id as
// three bytes, little endian, and each fill ended by a marker id.
func encodeFills(fills ...[]int32) []byte {
	var b []byte
	put := func(v uint32) { b = append(b, byte(v), byte(v>>8), byte(v>>16)) }
	for _, ids := range fills {
		for _, id := range ids {
			put(uint32(id))
		}
		put(fillEnd)
	}
	return b
}

// fillEnd is the smallest three-byte value decodeFills reads as the end
// of a fill rather than an id; ids stay below 2^20 (16,384 words, 256
// summary words).
const fillEnd = 1 << 20

// decodeFills cuts fuzz input into fills of ids, three bytes each; a
// trailing partial id is dropped and a trailing open fill kept.
func decodeFills(data []byte) [][]int32 {
	fills := [][]int32{nil}
	for ; len(data) >= 3; data = data[3:] {
		v := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16
		if v >= fillEnd {
			fills = append(fills, nil)
			continue
		}
		last := &fills[len(fills)-1]
		*last = append(*last, int32(v))
	}
	return fills
}

// FuzzIDSet checks one reused set against the map+sort reference over
// a sequence of fills: each fill is added one id at a time or all at
// once, and read out through AppendAscending onto a non-empty dst or
// through Ascending, in turns, so every fill starts from the state the
// previous read-out left.
func FuzzIDSet(f *testing.F) {
	f.Add(encodeFills([]int32{63, 64, 4095, 4096}, []int32{4096, 0, 4096}, nil, []int32{fillEnd - 1, 4095, 64}))
	f.Add(encodeFills([]int32{0}, []int32{1<<12 - 1, 1 << 12, 1<<18 + 63}, []int32{63, 63, 63}))
	f.Add(encodeFills(nil, nil, []int32{262143, 5, 262144}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s IDSet
		prefix := []int32{-1, -2, -3}
		for i, ids := range decodeFills(data) {
			if i%2 == 0 {
				s.AddAll(ids)
			} else {
				for _, id := range ids {
					s.Add(id)
				}
			}
			want := referenceAscending(ids)
			if s.Len() != len(want) {
				t.Fatalf("fill %d: Len() = %d, want %d", i, s.Len(), len(want))
			}
			var got []int32
			if i%3 == 2 {
				got = s.Ascending()
				if len(want) == 0 && got != nil {
					t.Fatalf("fill %d: Ascending of an empty set = %v, want nil", i, got)
				}
			} else {
				dst := prefix[:i%4]
				got = s.AppendAscending(slices.Clip(dst))
				if !slices.Equal(got[:len(dst)], dst) {
					t.Fatalf("fill %d: AppendAscending overwrote dst %v: %v", i, dst, got)
				}
				got = got[len(dst):]
			}
			if !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("fill %d: read %v, want %v", i, got, want)
			}
			if s.Len() != 0 {
				t.Fatalf("fill %d: %d ids left after the read-out", i, s.Len())
			}
		}
		for w, word := range s.words {
			if word != 0 {
				t.Fatalf("word %d = %#x after the last read-out", w, word)
			}
		}
		for w, word := range s.summary {
			if word != 0 {
				t.Fatalf("summary word %d = %#x after the last read-out", w, word)
			}
		}
	})
}
