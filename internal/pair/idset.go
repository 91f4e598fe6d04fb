package pair

import (
	"math"
	"math/bits"
	"slices"
)

// IDSet deduplicates non-negative ids in two levels: a bit per id
// (words, grown to the largest id added) and a summary bit per word
// that may be non-zero, plus the span of summary words a fill touched.
// Adding sets two bits, whether or not the id is already present, so
// Add and AddAll take no branch on the data. AppendAscending reads the
// set out in ascending order by walking the summary bits of that span
// to their words and the words to their ids, clearing both as it goes:
// its cost is the summary span, the non-zero words and the ids, never
// the set's capacity, so a sparse row over a large corpus stays cheap.
// A read-out leaves the set empty, so one set serves any number of
// fills. The zero value is an empty set. An IDSet is not safe for
// concurrent use.
type IDSet struct {
	words   []uint64 // bit id&63 of words[id>>6] is set when id is present
	summary []uint64 // bit w&63 of summary[w>>6] is set when words[w] may be non-zero
	// lo and end bound the summary words that may be non-zero:
	// [lo, end), empty when lo >= end.
	lo, end int
}

// summaryShift converts an id to its summary word: 64 ids per word,
// 64 words per summary word.
const summaryShift = 12

// Add adds id to the set.
func (s *IDSet) Add(id int32) {
	w := int(id >> 6)
	if w >= len(s.words) {
		s.grow(w)
	}
	s.words[w] |= 1 << (id & 63)
	s.summary[w>>6] |= 1 << (w & 63)
	s.lo, s.end = min(s.lo, int(id>>summaryShift)), max(s.end, int(id>>summaryShift)+1)
}

// AddAll adds every id of ids to the set.
func (s *IDSet) AddAll(ids []int32) {
	if len(ids) == 0 {
		return
	}
	// Every id agrees with the first outside the bits of diff, so all
	// lie in [first &^ diff, first | diff]: bounds for growing the set
	// and for the summary span, from one OR per id.
	first, diff := ids[0], int32(0)
	for _, id := range ids {
		diff |= id ^ first
	}
	lo, hi := first&^diff, first|diff
	if int(hi>>6) >= len(s.words) {
		s.grow(int(hi >> 6))
	}
	words, summary := s.words, s.summary
	if diff>>summaryShift == 0 {
		// One summary word: gather its bits in a register, so the
		// loop carries no load-store chain through memory.
		var sum uint64
		for _, id := range ids {
			words[id>>6] |= 1 << (id & 63)
			sum |= 1 << ((id >> 6) & 63)
		}
		summary[first>>summaryShift] |= sum
	} else {
		for _, id := range ids {
			w := id >> 6
			words[w] |= 1 << (id & 63)
			summary[w>>6] |= 1 << (w & 63)
		}
	}
	s.lo, s.end = min(s.lo, int(lo>>summaryShift)), max(s.end, int(hi>>summaryShift)+1)
}

// grow extends the set to cover word w, at least doubling it so a set
// filled in ascending id order grows in amortized constant time. A set
// that has never held an id starts with an empty summary span.
func (s *IDSet) grow(w int) {
	if len(s.words) == 0 {
		s.lo, s.end = math.MaxInt, 0
	}
	n := max(w+1, 2*len(s.words))
	s.words = append(s.words, make([]uint64, n-len(s.words))...)
	s.summary = append(s.summary, make([]uint64, (n+63)/64-len(s.summary))...)
}

// Len returns the number of distinct ids in the set, counting the
// non-zero words of the summary span.
func (s *IDSet) Len() int {
	n := 0
	for sw := s.lo; sw < s.end; sw++ {
		for sum := s.summary[sw]; sum != 0; sum &= sum - 1 {
			n += bits.OnesCount64(s.words[sw<<6|bits.TrailingZeros64(sum)])
		}
	}
	return n
}

// AppendAscending appends the set's ids to dst in ascending order and
// empties the set.
func (s *IDSet) AppendAscending(dst []int32) []int32 {
	for sw := s.lo; sw < s.end; sw++ {
		for sum := s.summary[sw]; sum != 0; sum &= sum - 1 {
			w := sw<<6 | bits.TrailingZeros64(sum)
			word := s.words[w]
			s.words[w] = 0
			dst = slices.Grow(dst, bits.OnesCount64(word))
			for ; word != 0; word &= word - 1 {
				dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
			}
		}
		s.summary[sw] = 0
	}
	s.lo, s.end = math.MaxInt, 0
	return dst
}

// Ascending returns the set's ids in ascending order in a new slice of
// exactly their number — nil when the set is empty — and empties the
// set.
func (s *IDSet) Ascending() []int32 {
	n := s.Len()
	if n == 0 {
		return nil
	}
	return s.AppendAscending(make([]int32, 0, n))
}
