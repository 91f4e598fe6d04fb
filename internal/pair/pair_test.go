package pair

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestMakeNormalizes(t *testing.T) {
	if got := Make(5, 2); got != (Pair{A: 2, B: 5}) {
		t.Errorf("Make(5,2) = %+v", got)
	}
	if got := Make(2, 5); got != (Pair{A: 2, B: 5}) {
		t.Errorf("Make(2,5) = %+v", got)
	}
}

func TestKeyUnique(t *testing.T) {
	seen := map[uint64]Pair{}
	for a := int32(0); a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			p := Make(a, b)
			if prev, dup := seen[p.Key()]; dup {
				t.Fatalf("key collision: %+v and %+v", prev, p)
			}
			seen[p.Key()] = p
		}
	}
}

func TestSortResultsAndPairs(t *testing.T) {
	rs := []Result{{A: 3, B: 4}, {A: 1, B: 9}, {A: 1, B: 2}}
	SortResults(rs)
	if rs[0].A != 1 || rs[0].B != 2 || rs[2].A != 3 {
		t.Errorf("SortResults = %v", rs)
	}
	ps := []Pair{{A: 3, B: 4}, {A: 1, B: 9}, {A: 1, B: 2}}
	SortPairs(ps)
	if ps[0] != (Pair{A: 1, B: 2}) || ps[2] != (Pair{A: 3, B: 4}) {
		t.Errorf("SortPairs = %v", ps)
	}
}

// TestSortPairsBothPaths checks SortPairs against a comparison sort on
// (A, B), over id ranges that take the counting-sort path (dense: ids
// span fewer values than there are pairs) and the comparison path.
func TestSortPairsBothPaths(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, c := range []struct{ pairs, ids int }{{2000, 50}, {2000, 1999}, {2000, 2001}, {300, 100000}, {1, 1}, {0, 1}} {
		ps := make([]Pair, c.pairs)
		for i := range ps {
			ps[i] = Make(int32(r.IntN(c.ids)), int32(r.IntN(c.ids)))
		}
		want := slices.Clone(ps)
		slices.SortStableFunc(want, func(x, y Pair) int {
			if x.A != y.A {
				return int(x.A - y.A)
			}
			return int(x.B - y.B)
		})
		SortPairs(ps)
		if !slices.Equal(ps, want) {
			t.Errorf("%d pairs over %d ids: SortPairs differs from the comparison sort", c.pairs, c.ids)
		}
	}
}

func TestResultPair(t *testing.T) {
	r := Result{A: 7, B: 3, Sim: 0.5}
	if r.Pair() != Make(3, 7) {
		t.Errorf("Result.Pair = %+v", r.Pair())
	}
}

// TestRowsOfRoundTrips checks that RowsOf cuts a pair slice at every
// change of A — unsorted input included, so one A can head two rows —
// that AppendRows flattens the rows back to the same pairs, and that a
// consumer may stop early.
func TestRowsOfRoundTrips(t *testing.T) {
	ps := []Pair{{3, 4}, {3, 9}, {1, 2}, {3, 5}, {3, 6}, {7, 8}}
	var heads []int32
	var sizes []int
	for a, bs := range RowsOf(ps) {
		heads, sizes = append(heads, a), append(sizes, len(bs))
	}
	if !slices.Equal(heads, []int32{3, 1, 3, 7}) || !slices.Equal(sizes, []int{2, 1, 2, 1}) {
		t.Errorf("rows headed %v with %v partners, want [3 1 3 7] with [2 1 2 1]", heads, sizes)
	}
	if got := AppendRows(nil, RowsOf(ps)); !slices.Equal(got, ps) {
		t.Errorf("AppendRows(RowsOf(ps)) = %v, want %v", got, ps)
	}
	if got := AppendRows(nil, RowsOf(nil)); len(got) != 0 {
		t.Errorf("no pairs gave %v", got)
	}
	for a := range RowsOf(ps) {
		if a != 3 {
			t.Fatalf("first row headed %d", a)
		}
		break
	}
}
