package pair

import "sort"

// Pair identifies two distinct vectors by their collection indices,
// normalized so that A < B.
type Pair struct {
	A, B int32
}

// Make returns the normalized pair for ids a and b.
func Make(a, b int32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Key packs the pair into a single comparable 64-bit key.
func (p Pair) Key() uint64 { return uint64(uint32(p.A))<<32 | uint64(uint32(p.B)) }

// Result is a pair that passed verification, with its (exact or
// estimated) similarity.
type Result struct {
	A, B int32
	Sim  float64
}

// Hit is a one-sided (query versus corpus) result: the corpus id of a
// vector similar to the query and its (exact or estimated) similarity.
// It is the query-serving counterpart of Result, which pairs two
// corpus ids.
type Hit struct {
	ID  int32
	Sim float64
}

// Pair returns the normalized pair of the result.
func (r Result) Pair() Pair { return Make(r.A, r.B) }

// SortResults orders results by (A, B) for deterministic output.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].A != rs[j].A {
			return rs[i].A < rs[j].A
		}
		return rs[i].B < rs[j].B
	})
}

// SortPairs orders pairs by (A, B).
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// Set is a deduplicating collector of pairs.
type Set struct {
	seen map[uint64]struct{}
	list []Pair
}

// NewSet returns an empty set with capacity hint n.
func NewSet(n int) *Set {
	return &Set{seen: make(map[uint64]struct{}, n)}
}

// Add inserts the normalized pair (a, b) if not already present and
// reports whether it was added. Self-pairs are ignored.
func (s *Set) Add(a, b int32) bool {
	if a == b {
		return false
	}
	p := Make(a, b)
	if _, dup := s.seen[p.Key()]; dup {
		return false
	}
	s.seen[p.Key()] = struct{}{}
	s.list = append(s.list, p)
	return true
}

// Len returns the number of distinct pairs collected.
func (s *Set) Len() int { return len(s.list) }

// Pairs returns the collected pairs in insertion order. The returned
// slice is owned by the set; callers must not modify it.
func (s *Set) Pairs() []Pair { return s.list }
