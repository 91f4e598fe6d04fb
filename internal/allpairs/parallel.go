// Sharded AllPairs: the original algorithm (Search, Candidates)
// interleaves probing and indexing (each vector probes the index of
// the vectors processed before it), which serializes the expensive
// probe phase. The build-then-probe scan (ctx.go) splits the two:
// first the inverted index is built to completion in processing order
// (cheap — indexing is linear in the input), then every vector probes
// the finished index on a worker pool. A probe against the full index
// reproduces the interleaved probe exactly by filtering postings to
// vectors earlier in the processing order: postings are appended in
// processing order, so the entries a vector saw in the interleaved
// scan are precisely the prefix of each list with an earlier position,
// and the lazy minsize head-truncation is replayed statelessly by
// skipping the leading entries below the probe's own bound (the bound
// is monotone over the processing order, so entries truncated by the
// interleaved scan are exactly those skipped here). The skip is a
// binary search over each list's prefix maximum of partner size: the
// first entry whose prefix maximum meets the bound is the first entry
// that does. Each probe's output is kept under its position
// (candidates) or its probe batch's slot (search results) and
// concatenated in processing order afterwards — the stream is
// identical, pair for pair, to the interleaved scan for any worker
// count.

package allpairs

import (
	"math"
	"slices"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// probeState is the per-worker scratch of the probe phase; a point
// query also reads its candidates out ascending through ids.
type probeState struct {
	accs    []float64
	touched []int32
	ids     pair.IDSet
}

// probe replays x's sequential probe against the fully built index,
// calling emit(y, acc) for every candidate that passes the upper-bound
// check. x sees the postings of vectors at processing positions before
// xpos: a corpus vector passes its own position, a query
// math.MaxInt32, since it sees the whole corpus. stop (nil for "not
// cancelable") is polled between the probe's posting lists; an aborted
// probe emits nothing but still zeroes its accumulators, so a pooled
// probeState stays clean for whoever draws it next.
func (s *searcher) probe(x vector.Vector, xpos int32, ps *probeState, stop *shard.Stopper, emit func(y int32, acc float64)) {
	if x.Len() == 0 {
		return
	}
	xmax := x.MaxVal()
	minsize := minSize(s.t, xmax)
	touched := ps.touched[:0]
	aborted := false
	for j, f := range x.Ind {
		if stop.Stopped() {
			aborted = true
			break
		}
		if uint64(f) >= uint64(len(s.lists)) {
			continue // feature outside the corpus dimensionality
		}
		w := x.Val[j]
		list := &s.lists[f]
		if n := len(list.reach); n == 0 || list.reach[n-1] < minsize {
			continue // every partner in the list is too short
		}
		head, _ := slices.BinarySearch(list.reach, minsize)
		for _, p := range list.entries[head:] {
			if p.pos >= xpos {
				break // indexed after x; the sequential probe never saw it
			}
			if ps.accs[p.id] == 0 {
				touched = append(touched, p.id)
			}
			ps.accs[p.id] += w * p.w
		}
	}
	for _, y := range touched {
		a := ps.accs[y]
		ps.accs[y] = 0
		if aborted {
			continue // cleanup only; the probe's output is discarded
		}
		yu := s.unidx[y]
		bound := a + math.Min(float64(x.Len()), float64(yu.Len()))*xmax*s.unidxMax[y]
		if bound >= s.t-fpSlack {
			emit(y, a)
		}
	}
	ps.touched = touched
}
