package pair

import (
	"cmp"
	"iter"
	"slices"
	"sort"
)

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

// Rows is a candidate stream grouped by left id: each element is a
// row, an id a and the partners b it is paired with. The partner slice
// belongs to the producer — it is valid only until the next element —
// and the consumer may overwrite it, to filter it in place. Banded LSH
// yields each row's partners as the ascending ids b > a that collide
// with a; RowsOf cuts any pair slice into rows.
type Rows = iter.Seq2[int32, []int32]

// RowsOf cuts ps into rows, one per maximal run of pairs sharing A,
// with partners in pair order, so the pairs of the rows in row order
// are ps again. Sorted input gives one row per distinct A.
func RowsOf(ps []Pair) Rows {
	return func(yield func(int32, []int32) bool) {
		var bs []int32
		for i := 0; i < len(ps); {
			a := ps[i].A
			bs = bs[:0]
			for ; i < len(ps) && ps[i].A == a; i++ {
				bs = append(bs, ps[i].B)
			}
			if !yield(a, bs) {
				return
			}
		}
	}
}

// AppendRows appends the pairs (a, b) of every row to ps, in row
// order.
func AppendRows(ps []Pair, rows Rows) []Pair {
	for a, bs := range rows {
		for _, b := range bs {
			ps = append(ps, Pair{A: a, B: b})
		}
	}
	return ps
}

// SortResults orders results by (A, B) for deterministic output.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].A != rs[j].A {
			return rs[i].A < rs[j].A
		}
		return rs[i].B < rs[j].B
	})
}

// SortPairs orders pairs by (A, B). Sorted input costs one scan. When
// the ids span no more values than there are pairs — a dense candidate
// set over a corpus — it runs two stable counting-sort passes, by B and
// then by A, linear in the pairs; otherwise it compares packed keys,
// whose order is (A, B) because ids are non-negative.
func SortPairs(ps []Pair) {
	var top int32
	sorted := true
	for i, p := range ps {
		top = max(top, p.A, p.B)
		if i > 0 && p.Key() < ps[i-1].Key() {
			sorted = false
		}
	}
	if sorted {
		return
	}
	if int(top) >= len(ps) {
		slices.SortFunc(ps, func(x, y Pair) int { return cmp.Compare(x.Key(), y.Key()) })
		return
	}
	tmp := make([]Pair, len(ps))
	starts := make([]int, top+2)
	countingPass(tmp, ps, starts, func(p Pair) int32 { return p.B })
	countingPass(ps, tmp, starts, func(p Pair) int32 { return p.A })
}

// countingPass stably places src into dst in ascending key order;
// starts has room for every key plus one.
func countingPass(dst, src []Pair, starts []int, key func(Pair) int32) {
	clear(starts)
	for _, p := range src {
		starts[key(p)+1]++
	}
	for k := 1; k < len(starts); k++ {
		starts[k] += starts[k-1]
	}
	for _, p := range src {
		k := key(p)
		dst[starts[k]] = p
		starts[k]++
	}
}
