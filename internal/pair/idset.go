package pair

import (
	"math/bits"
	"slices"
)

// IDSet deduplicates non-negative ids: a bitset, grown to the largest
// id added, plus the list of distinct ids in the order they were first
// added. AppendAscending reads the set out in ascending order and
// leaves it empty, so one set serves any number of fills; emptying it
// touches only the words the fill used. The zero value is an empty
// set. An IDSet is not safe for concurrent use.
type IDSet struct {
	words []uint64
	ids   []int32
}

// Add adds id to the set.
func (s *IDSet) Add(id int32) {
	w := int(id >> 6)
	if w >= len(s.words) {
		s.grow(w)
	}
	if bit := uint64(1) << (id & 63); s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.ids = append(s.ids, id)
	}
}

// AddAll adds every id of ids to the set.
func (s *IDSet) AddAll(ids []int32) {
	for _, id := range ids {
		s.Add(id)
	}
}

// grow extends the bitset to cover word w, at least doubling it so a
// set filled in ascending id order grows in amortized constant time.
func (s *IDSet) grow(w int) {
	s.words = append(s.words, make([]uint64, max(w+1, 2*len(s.words))-len(s.words))...)
}

// Len returns the number of distinct ids in the set.
func (s *IDSet) Len() int { return len(s.ids) }

// wordRange returns the indices of the lowest and highest words the
// set's ids fall in. The set must not be empty.
func (s *IDSet) wordRange() (lo, hi int) {
	l, h := s.ids[0], s.ids[0]
	for _, id := range s.ids[1:] {
		l, h = min(l, id), max(h, id)
	}
	return int(l >> 6), int(h >> 6)
}

// sparse reports whether sorting m ids is cheaper than scanning the
// span of ids their words cover: m·bits.Len(m) < span/8.
func sparse(m, span int) bool { return m*bits.Len(uint(m)) < span/8 }

// AppendAscending appends the set's ids to dst in ascending order and
// empties the set. A sparse set sorts its id list and clears the words
// by it; a denser one scans the words from its lowest id's to its
// highest's with TrailingZeros64, one pass over the span instead of a
// sort, clearing each.
func (s *IDSet) AppendAscending(dst []int32) []int32 {
	m := len(s.ids)
	if m == 0 {
		return dst
	}
	lo, hi := s.wordRange()
	if sparse(m, 64*(hi-lo+1)) {
		slices.Sort(s.ids)
		for _, id := range s.ids {
			s.words[id>>6] = 0
		}
		dst = append(dst, s.ids...)
	} else {
		dst = slices.Grow(dst, m)
		out := dst[len(dst) : len(dst)+m]
		j := 0
		for w := lo; w <= hi; w++ {
			for word := s.words[w]; word != 0; word &= word - 1 {
				out[j] = int32(w<<6 | bits.TrailingZeros64(word))
				j++
			}
			s.words[w] = 0
		}
		dst = dst[:len(dst)+m]
	}
	s.ids = s.ids[:0]
	return dst
}

// Ascending returns the set's ids in ascending order in a new slice of
// exactly their number — nil when the set is empty — and empties the
// set.
func (s *IDSet) Ascending() []int32 {
	if len(s.ids) == 0 {
		return nil
	}
	return s.AppendAscending(make([]int32, 0, len(s.ids)))
}
