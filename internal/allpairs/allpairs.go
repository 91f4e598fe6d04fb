package allpairs

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// posting is one inverted-index entry: vector id, its position in the
// processing order and its weight for the posting's feature. pos rides
// in what would otherwise be padding; it is derived at build and load
// time and never serialized.
type posting struct {
	id  int32
	pos int32
	w   float64
}

// postingList is one feature's postings in processing order. reach[i]
// is the largest partner size among entries[:i+1]: a monotone key, so
// a probe finds the first entry meeting its size bound by binary
// search instead of walking past the short vectors at the head.
type postingList struct {
	entries []posting
	reach   []int32
	start   int // interleaved scan only: entries[:start] have been pruned
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
	pos      []int32         // position of each id in the processing order
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
	vmax := make([]float64, len(c.Vecs))
	for i, v := range c.Vecs {
		s.sizes[i] = v.Len()
		vmax[i] = v.MaxVal()
		// The minsize and upper-bound pruning rules assume unit-norm,
		// non-negative vectors; on other inputs they would silently
		// drop qualifying pairs, so reject such inputs outright.
		if n := v.Norm(); v.Len() > 0 && math.Abs(n-1) > normTol {
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
	slices.SortStableFunc(perm, func(a, b int32) int { return cmp.Compare(df[b], df[a]) })
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
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(vmax[b], vmax[a]) })
	s.pos = make([]int32, len(c.Vecs))
	for p, id := range s.order {
		s.pos[id] = int32(p)
	}
	return s, nil
}

// minSize is the size filter: the fewest features a unit-norm,
// non-negative partner y needs before its dot product with a vector of
// maximum weight xmax can reach t. Two bounds apply, and the tighter
// wins: Bayardo's dot ≤ xmax·|y| (every y_i ≤ 1) and Cauchy–Schwarz's
// dot ≤ xmax·Σy ≤ xmax·√|y|, so |y| ≥ (t/xmax)². Both are relaxed so
// rounding cannot bump the ceiling past a partner sitting exactly at
// the bound, the squared one also by the norm deviation newSearcher
// admits.
func minSize(t, xmax float64) int32 {
	if xmax <= 0 {
		return 0
	}
	r := (t - fpSlack) / (xmax * (1 + normTol))
	sq := math.Ceil(r * r * (1 - fpSlack))
	return int32(math.Min(math.Max(math.Ceil(t/xmax-fpSlack), sq), math.MaxInt32))
}

// run executes the AllPairs scan. For every probing vector x it calls
// emit(x, y, A) for each candidate y that passes the upper-bound
// check, where A is the accumulated dot product over y's indexed
// features. emit receives ids in collection numbering.
func (s *searcher) run(emit func(x, y int32, acc float64)) {
	cut := s.plan()
	accs := make([]float64, len(s.c.Vecs))
	var touched []int32
	for _, xid := range s.order {
		x := s.c.Vecs[xid]
		if x.Len() == 0 {
			continue
		}
		xmax := x.MaxVal()
		minsize := int(minSize(s.t, xmax))
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
		s.indexVector(xid, cut)
	}
}

// plan prepares an index build without sorting, returning every
// vector's cut: the rank of its first indexed feature.
//
// Partial indexing keeps a feature out of the index while b = Σ
// x_i·maxw_i, summed in rank order, stays below the threshold. The
// bound is relaxed by fpSlack: rounding in b must never leave a vector
// whose mass can reach the threshold entirely unindexed (e.g. an exact
// duplicate at t = 1). b only grows, so a vector's unindexed features
// are exactly those ranked before its cut (all of them if b never
// reaches the bound), and both halves can be filtered out of the
// vector in index order.
//
// Finding the cuts needs every vector's features in rank order. One
// counting transpose buckets every entry under its feature; sweeping
// the buckets in rank order then visits each vector's features in rank
// order, accumulating every b in the same order a per-vector sort
// would. The sweep also counts each list's postings and each prefix's
// length, so plan fills unidx and reserves each postings list at its
// exact capacity, and indexVector only appends.
func (s *searcher) plan() []int32 {
	vecs, dim := s.c.Vecs, s.c.Dim
	bucket := make([]int, dim+1)
	for _, v := range vecs {
		for _, f := range v.Ind {
			bucket[f+1]++
		}
	}
	for f := 0; f < dim; f++ {
		bucket[f+1] += bucket[f]
	}
	type entry struct{ id, j int32 }
	tr := make([]entry, bucket[dim])
	next := append([]int(nil), bucket[:dim]...)
	for i, v := range vecs {
		for j, f := range v.Ind {
			tr[next[f]] = entry{int32(i), int32(j)}
			next[f]++
		}
	}
	perm := make([]int32, dim)
	for f, r := range s.rank {
		perm[r] = int32(f)
	}
	cut := make([]int32, len(vecs))
	for i := range cut {
		cut[i] = math.MaxInt32 // not reached: every feature stays unindexed
	}
	b, ulen, count := make([]float64, len(vecs)), make([]int32, len(vecs)), make([]int, dim)
	indexed, unindexed := 0, 0
	for r, f := range perm {
		for _, e := range tr[bucket[f]:bucket[f+1]] {
			if cut[e.id] == math.MaxInt32 {
				b[e.id] += vecs[e.id].Val[e.j] * s.maxw[f]
				if b[e.id] < s.t-fpSlack {
					ulen[e.id]++
					unindexed++
					continue
				}
				cut[e.id] = int32(r)
			}
			count[f]++
			indexed++
		}
	}

	// The unindexed prefixes, in index order, share one allocation; so
	// do the postings lists.
	uind, uval := make([]uint32, unindexed), make([]float64, unindexed)
	for i, v := range vecs {
		n := int(ulen[i])
		if n == 0 {
			continue
		}
		u := vector.Vector{Ind: uind[:0:n], Val: uval[:0:n]}
		uind, uval = uind[n:], uval[n:]
		for j, f := range v.Ind {
			if s.rank[f] < cut[i] {
				u.Ind = append(u.Ind, f)
				u.Val = append(u.Val, v.Val[j])
			}
		}
		s.unidx[i] = u
		s.unidxMax[i] = u.MaxVal()
	}
	entries, reach := make([]posting, indexed), make([]int32, indexed)
	for f, n := range count {
		s.lists[f].entries = entries[:0:n]
		s.lists[f].reach = reach[:0:n]
		entries, reach = entries[n:], reach[n:]
	}
	return cut
}

// indexVector appends the features of x ranked at or after its cut to
// the inverted index.
func (s *searcher) indexVector(xid int, cut []int32) {
	x := s.c.Vecs[xid]
	for j, f := range x.Ind {
		if s.rank[f] >= cut[xid] {
			s.add(f, int32(xid), x.Val[j])
		}
	}
}

// add appends vector id's posting to feature f's list, extending the
// list's prefix size key.
func (s *searcher) add(f uint32, id int32, w float64) {
	l := &s.lists[f]
	key := int32(s.sizes[id])
	if n := len(l.reach); n > 0 && l.reach[n-1] > key {
		key = l.reach[n-1]
	}
	l.entries = append(l.entries, posting{id: id, pos: s.pos[id], w: w})
	l.reach = append(l.reach, key)
}

// index builds the whole inverted index in processing order, polling
// stop (nil for "not cancelable") between vectors.
func (s *searcher) index(stop *shard.Stopper) error {
	cut := s.plan()
	for _, xid := range s.order {
		if stop.Stopped() {
			return stop.Err()
		}
		s.indexVector(xid, cut)
	}
	return nil
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

// normTol is how far from 1 an input vector's norm may be.
const normTol = 1e-6

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
