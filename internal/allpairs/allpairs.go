package allpairs

import (
	"fmt"
	"math"
	"sort"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/vector"
)

// posting is one inverted-index entry: vector id and its weight for
// the posting's feature.
type posting struct {
	id int32
	w  float64
}

// postingList supports lazy head-truncation for the minsize filter.
type postingList struct {
	entries []posting
	start   int // entries[:start] have been pruned
}

type searcher struct {
	c        *vector.Collection
	t        float64
	maxw     []float64 // global max weight per feature
	rank     []int32   // feature → position in decreasing-df order
	lists    []postingList
	unidx    []vector.Vector // unindexed prefix per processed vector
	unidxMax []float64       // max weight of the unindexed prefix
	sizes    []int           // full lengths, for the minsize filter
	order    []int           // processing order (decreasing maxweight)
	pos      []int           // position of each id in the processing order
}

func newSearcher(c *vector.Collection, t float64) (*searcher, error) {
	if t <= 0 || t > 1 {
		return nil, fmt.Errorf("allpairs: threshold %v outside (0, 1]", t)
	}
	s := &searcher{
		c:        c,
		t:        t,
		maxw:     make([]float64, c.Dim),
		lists:    make([]postingList, c.Dim),
		unidx:    make([]vector.Vector, len(c.Vecs)),
		unidxMax: make([]float64, len(c.Vecs)),
		sizes:    make([]int, len(c.Vecs)),
	}
	df := make([]int32, c.Dim)
	for i, v := range c.Vecs {
		s.sizes[i] = v.Len()
		// The minsize and upper-bound pruning rules assume unit-norm,
		// non-negative vectors; on other inputs they would silently
		// drop qualifying pairs, so reject such inputs outright.
		if n := v.Norm(); v.Len() > 0 && math.Abs(n-1) > 1e-6 {
			return nil, fmt.Errorf("allpairs: vector %d has norm %v; AllPairs requires unit-normalized input (call Normalize first)", i, n)
		}
		for j, ind := range v.Ind {
			if v.Val[j] < 0 {
				return nil, fmt.Errorf("allpairs: vector %d has negative weight; AllPairs bounds require non-negative weights", i)
			}
			if v.Val[j] > s.maxw[ind] {
				s.maxw[ind] = v.Val[j]
			}
			df[ind]++
		}
	}
	// rank: decreasing document frequency.
	perm := make([]int32, c.Dim)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return df[perm[a]] > df[perm[b]] })
	s.rank = make([]int32, c.Dim)
	for r, f := range perm {
		s.rank[f] = int32(r)
	}
	// Processing order: decreasing maxweight(x) makes the minsize
	// filter monotone.
	s.order = make([]int, len(c.Vecs))
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return c.Vecs[s.order[a]].MaxVal() > c.Vecs[s.order[b]].MaxVal()
	})
	s.pos = make([]int, len(c.Vecs))
	for p, id := range s.order {
		s.pos[id] = p
	}
	return s, nil
}

// featuresByRank returns the positions of v's features sorted by the
// global decreasing-df rank.
func (s *searcher) featuresByRank(v vector.Vector) []int {
	idx := make([]int, v.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return s.rank[v.Ind[idx[a]]] < s.rank[v.Ind[idx[b]]]
	})
	return idx
}

// run executes the AllPairs scan. For every probing vector x it calls
// emit(x, y, A) for each candidate y that passes the upper-bound
// check, where A is the accumulated dot product over y's indexed
// features. emit receives ids in collection numbering.
func (s *searcher) run(emit func(x, y int32, acc float64)) {
	accs := make([]float64, len(s.c.Vecs))
	var touched []int32
	for _, xid := range s.order {
		x := s.c.Vecs[xid]
		if x.Len() == 0 {
			continue
		}
		xmax := x.MaxVal()
		minsize := 0
		if xmax > 0 {
			// Relaxed by fpSlack: rounding in t/xmax must not bump the
			// ceiling past a partner sitting exactly at the bound.
			minsize = int(math.Ceil(s.t/xmax - fpSlack))
		}
		touched = touched[:0]
		// Probe the postings lists of x's features.
		for j, f := range x.Ind {
			w := x.Val[j]
			list := &s.lists[f]
			// Lazily drop entries below the (monotone) minsize bound.
			for list.start < len(list.entries) && s.sizes[list.entries[list.start].id] < minsize {
				list.start++
			}
			for _, p := range list.entries[list.start:] {
				if accs[p.id] == 0 {
					touched = append(touched, p.id)
				}
				accs[p.id] += w * p.w
			}
		}
		// Verify candidates with the cheap upper bound (relaxed by
		// fpSlack so rounding cannot drop a pair sitting exactly at
		// the threshold).
		for _, y := range touched {
			a := accs[y]
			accs[y] = 0
			yu := s.unidx[y]
			bound := a + math.Min(float64(x.Len()), float64(yu.Len()))*xmax*s.unidxMax[y]
			if bound >= s.t-fpSlack {
				emit(int32(xid), y, a)
			}
		}
		s.indexVector(xid)
	}
}

// indexVector appends x's features to the inverted index, keeping a
// prefix unindexed while b < t. The bound is relaxed by fpSlack:
// rounding in b must never leave a vector whose mass can reach the
// threshold entirely unindexed (e.g. an exact duplicate at t = 1).
func (s *searcher) indexVector(xid int) {
	x := s.c.Vecs[xid]
	if x.Len() == 0 {
		return
	}
	b := 0.0
	var keepInd []uint32
	var keepVal []float64
	for _, fi := range s.featuresByRank(x) {
		f, w := x.Ind[fi], x.Val[fi]
		b += w * s.maxw[f]
		if b >= s.t-fpSlack {
			s.lists[f].entries = append(s.lists[f].entries, posting{id: int32(xid), w: w})
		} else {
			keepInd = append(keepInd, f)
			keepVal = append(keepVal, w)
		}
	}
	// Store the unindexed prefix in sorted index order for Dot.
	if len(keepInd) > 0 {
		es := make([]vector.Entry, len(keepInd))
		for i := range keepInd {
			es[i] = vector.Entry{Ind: keepInd[i], Val: keepVal[i]}
		}
		s.unidx[xid] = vector.New(es)
		s.unidxMax[xid] = s.unidx[xid].MaxVal()
	}
}

// Search performs exact all-pairs cosine similarity search with
// threshold t. The input must be unit-normalized with non-negative
// weights (e.g. TfIdf().Normalize()); an error is returned for
// negative weights.
func Search(c *vector.Collection, t float64) ([]pair.Result, error) {
	s, err := newSearcher(c, t)
	if err != nil {
		return nil, err
	}
	var out []pair.Result
	s.run(func(x, y int32, acc float64) {
		if r, ok := s.finish(x, y, acc); ok {
			out = append(out, r)
		}
	})
	return out, nil
}

// finish completes a candidate's exact similarity from the
// accumulated indexed dot product and decides whether it meets the
// threshold. sim equals the cosine up to summation order; for
// borderline values it is re-evaluated with the canonical definition
// so AllPairs agrees bit-for-bit with brute force.
func (s *searcher) finish(x, y int32, acc float64) (pair.Result, bool) {
	sim := acc + vector.Dot(s.c.Vecs[x], s.unidx[y])
	if sim < s.t-fpSlack {
		return pair.Result{}, false
	}
	if sim < s.t+fpSlack {
		sim = vector.Cosine(s.c.Vecs[x], s.c.Vecs[y])
		if sim < s.t {
			return pair.Result{}, false
		}
	}
	return pair.Result{A: min32(x, y), B: max32(x, y), Sim: sim}, true
}

// Candidates returns the candidate pairs AllPairs would exactly verify
// (pairs that survive the index scan and the upper-bound check),
// without computing exact similarities. This is the candidate stream
// the paper feeds to BayesLSH in its AP+BayesLSH pipelines.
func Candidates(c *vector.Collection, t float64) ([]pair.Pair, error) {
	s, err := newSearcher(c, t)
	if err != nil {
		return nil, err
	}
	var out []pair.Pair
	s.run(func(x, y int32, acc float64) {
		out = append(out, pair.Make(x, y))
	})
	return out, nil
}

// JaccardCosineThreshold maps a Jaccard threshold t to the binary
// cosine threshold 2t/(1+t): J(x,y) >= t implies
// cos_bin(x,y) >= 2t/(1+t), so cosine candidates at the mapped
// threshold are a superset of the Jaccard result set.
func JaccardCosineThreshold(t float64) float64 { return 2 * t / (1 + t) }

// SearchMeasure runs exact AllPairs under the given measure. For
// Cosine the input must already be normalized. For Jaccard and
// BinaryCosine the input is binarized and normalized internally and
// survivors are verified under the requested measure.
func SearchMeasure(c *vector.Collection, m exact.Measure, t float64) ([]pair.Result, error) {
	switch m {
	case exact.Cosine:
		return Search(c, t)
	case exact.BinaryCosine, exact.Jaccard:
		// Binary similarities are ratios of integers (over square
		// roots) and routinely land exactly on the threshold, so the
		// decision must use the library's canonical similarity
		// definition: generate candidates with a hair of slack, then
		// verify under the requested measure.
		cands, err := CandidatesMeasure(c, m, t)
		if err != nil {
			return nil, err
		}
		return exact.Verify(c, m, t, cands), nil
	default:
		return nil, fmt.Errorf("allpairs: unknown measure %v", m)
	}
}

// fpSlack relaxes candidate-generation thresholds so that pairs
// sitting exactly at the threshold cannot be lost to floating-point
// rounding in the internal bounds.
const fpSlack = 1e-9

// measureInput maps a measure to the preprocessed collection and the
// cosine threshold the AllPairs scan runs at (see SearchMeasure for
// the preprocessing rules). Both the interleaved and sharded entry
// points go through this one mapping, so they cannot drift apart.
func measureInput(c *vector.Collection, m exact.Measure, t float64) (*vector.Collection, float64, error) {
	switch m {
	case exact.Cosine:
		return c, t, nil
	case exact.BinaryCosine:
		return c.Binarize().Normalize(), t - fpSlack, nil
	case exact.Jaccard:
		return c.Binarize().Normalize(), JaccardCosineThreshold(t) - fpSlack, nil
	default:
		return nil, 0, fmt.Errorf("allpairs: unknown measure %v", m)
	}
}

// CandidatesMeasure generates AllPairs candidates under the given
// measure (see SearchMeasure for preprocessing rules).
func CandidatesMeasure(c *vector.Collection, m exact.Measure, t float64) ([]pair.Pair, error) {
	in, tc, err := measureInput(c, m, t)
	if err != nil {
		return nil, err
	}
	return Candidates(in, tc)
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
