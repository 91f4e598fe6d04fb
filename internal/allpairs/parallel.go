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
// interleaved scan are exactly those skipped here). Each probe's output
// is kept under its position (candidates) or its probe batch's slot
// (search results) and concatenated in processing order afterwards —
// the stream is identical, pair for pair, to the interleaved scan for
// any worker count.

package allpairs

import (
	"math"

	"bayeslsh/internal/shard"
)

// probeState is the per-worker scratch of the probe phase.
type probeState struct {
	accs    []float64
	touched []int32
}

// probeFull replays x's sequential probe against the fully built
// index, calling emit(y, acc) for every candidate that passes the
// upper-bound check. stop (nil for "not cancelable") is polled between
// the probe's posting lists; an aborted probe emits nothing but still
// zeroes its accumulators, so a pooled probeState stays clean for
// whoever draws it next.
func (s *searcher) probeFull(xid int, ps *probeState, stop *shard.Stopper, emit func(y int32, acc float64)) {
	x := s.c.Vecs[xid]
	if x.Len() == 0 {
		return
	}
	xmax := x.MaxVal()
	minsize := 0
	if xmax > 0 {
		// Relaxed by fpSlack: rounding in t/xmax must not bump the
		// ceiling past a partner sitting exactly at the bound.
		minsize = int(math.Ceil(s.t/xmax - fpSlack))
	}
	xpos := s.pos[xid]
	touched := ps.touched[:0]
	aborted := false
	for j, f := range x.Ind {
		if stop.Stopped() {
			aborted = true
			break
		}
		w := x.Val[j]
		skipping := true
		for _, p := range s.lists[f].entries {
			if s.pos[p.id] >= xpos {
				break // indexed after x; the sequential probe never saw it
			}
			if skipping {
				if s.sizes[p.id] < minsize {
					continue
				}
				skipping = false
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
