package ppjoin

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// record is a set re-expressed as sorted token ranks.
type record struct {
	id     int32
	tokens []int32
}

// entry is an inverted-index posting: record index (into the sorted
// record order) and the token's position within that record.
type entry struct {
	rec int32
	pos int32
}

// Search performs an exact all-pairs similarity join on the index
// sets of c under measure m (Jaccard or BinaryCosine) with threshold
// t in (0, 1]. Weights are ignored. It is SearchStream under
// context.Background(), collected in scan order — it cannot be
// canceled.
func Search(c *vector.Collection, m exact.Measure, t float64) ([]pair.Result, error) {
	var sink shard.Slots[pair.Result]
	if err := SearchStream(context.Background(), c, m, t, sink.Put); err != nil {
		return nil, err
	}
	return sink.Flat(), nil
}

// SearchStream runs the join with cooperative cancellation, delivering
// verified results to emit in blocks as the scan produces them, so no
// full result set is ever resident. The scan is inherently sequential
// (each record probes the index of the records before it), so blocks
// arrive in scan order on the calling goroutine, numbered by slot
// 0, 1, 2, …; cancellation is polled between probing records and
// between posting lists, and a canceled call returns ctx.Err(). A
// non-nil error from emit stops the scan and is returned.
func SearchStream(ctx context.Context, c *vector.Collection, m exact.Measure, t float64, emit func(slot int, rs []pair.Result) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	// The scan's per-record result batches are tiny, so streaming
	// record by record would be all call overhead; results are flushed
	// in blocks instead. The scan itself holds only its index and
	// accumulators — the block size is what bounds buffered results.
	const block = 1024
	var (
		buf     []pair.Result
		slot    int
		emitErr error
	)
	err := scan(c, m, t, stop, func(r pair.Result) bool {
		buf = append(buf, r)
		if len(buf) >= block {
			emitErr = emit(slot, buf)
			slot++
			buf = nil // emit may have retained the slice
		}
		return emitErr == nil
	})
	switch {
	case err != nil:
		return err
	case emitErr != nil:
		return emitErr
	case ctx.Err() != nil:
		return ctx.Err()
	}
	if len(buf) > 0 {
		if err := emit(slot, buf); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// scan runs the PPJoin+ join, emitting each verified pair in
// processing order. stop (nil for "not cancelable") is polled between
// probing records and between posting lists; once it trips — or emit
// returns false — the scan returns early and the caller discards or
// ignores what was emitted.
func scan(c *vector.Collection, m exact.Measure, t float64, stop *shard.Stopper, emit func(pair.Result) bool) error {
	if t <= 0 || t > 1 {
		return fmt.Errorf("ppjoin: threshold %v outside (0, 1]", t)
	}
	var (
		// minLen returns the smallest |y| that can reach t with |x|.
		minLen func(x int) int
		// alpha returns the required overlap for sizes |x|, |y|.
		alpha func(x, y int) int
		// sim computes the similarity from overlap and sizes.
		sim func(o, x, y int) float64
	)
	// The filters use ceilings of floating-point expressions; a pair
	// sitting exactly at the threshold (common for rational Jaccard
	// values) must not be lost to an upward rounding error, so the
	// ceilings are relaxed by a tiny epsilon and the final decision is
	// made with the same similarity formula the rest of the library
	// uses.
	const fpSlack = 1e-9
	ceil := func(x float64) int { return int(math.Ceil(x - fpSlack)) }
	switch m {
	case exact.Jaccard:
		minLen = func(x int) int { return ceil(t * float64(x)) }
		alpha = func(x, y int) int {
			return ceil(t / (1 + t) * float64(x+y))
		}
		sim = func(o, x, y int) float64 { return float64(o) / float64(x+y-o) }
	case exact.BinaryCosine:
		minLen = func(x int) int { return ceil(t * t * float64(x)) }
		alpha = func(x, y int) int {
			return ceil(t * math.Sqrt(float64(x)*float64(y)))
		}
		sim = func(o, x, y int) float64 {
			return float64(o) / math.Sqrt(float64(x)*float64(y))
		}
	default:
		return fmt.Errorf("ppjoin: measure %v not supported (binary measures only)", m)
	}

	records := canonicalize(c)
	n := len(records)
	index := make(map[int32][]entry)

	// Per-probe candidate accumulators, reset via the touched list.
	overlap := make([]int32, n)    // matching prefix tokens so far
	lastPos := make([][2]int32, n) // positions of the last prefix match
	pruned := make([]bool, n)
	var touched []int32

	for xi := 0; xi < n; xi++ {
		if stop.Stopped() {
			return nil
		}
		x := records[xi]
		xlen := len(x.tokens)
		if xlen == 0 {
			continue
		}
		// Probing prefix: a qualifying partner must share one of the
		// first |x| − α_min + 1 tokens, where α_min = α(|x|, minLen).
		aMin := alpha(xlen, minLen(xlen))
		if aMin < 1 {
			aMin = 1
		}
		probePrefix := xlen - aMin + 1
		if probePrefix > xlen {
			probePrefix = xlen
		}
		touched = touched[:0]
		for i := 0; i < probePrefix; i++ {
			if stop.Stopped() {
				return nil
			}
			w := x.tokens[i]
			postings := index[w]
			// Lazy length filter: records are processed in increasing
			// size, so postings too short for x are too short forever.
			lo := 0
			for lo < len(postings) && len(records[postings[lo].rec].tokens) < minLen(xlen) {
				lo++
			}
			if lo > 0 {
				postings = postings[lo:]
				index[w] = postings
			}
			for _, e := range postings {
				if pruned[e.rec] {
					continue
				}
				y := records[e.rec]
				ylen := len(y.tokens)
				a := alpha(xlen, ylen)
				if overlap[e.rec] == 0 {
					touched = append(touched, e.rec)
				}
				// Positional filter: can the pair still reach α?
				ub := overlap[e.rec] + 1 + int32(minInt(xlen-i-1, ylen-int(e.pos)-1))
				if int(ub) < a {
					pruned[e.rec] = true
					continue
				}
				overlap[e.rec]++
				lastPos[e.rec] = [2]int32{int32(i), e.pos}
			}
		}
		// Verify survivors by merging the suffixes after the last
		// prefix match.
		for _, yi := range touched {
			o := overlap[yi]
			lp := lastPos[yi]
			wasPruned := pruned[yi]
			overlap[yi], pruned[yi] = 0, false
			if wasPruned || o == 0 {
				continue
			}
			y := records[yi]
			a := alpha(xlen, len(y.tokens))
			total := mergeCount(x.tokens, y.tokens, int(lp[0])+1, int(lp[1])+1, int(o), a)
			if s := sim(total, xlen, len(y.tokens)); total >= a && s >= t {
				p := pair.Make(x.id, y.id)
				if !emit(pair.Result{A: p.A, B: p.B, Sim: s}) {
					return nil
				}
			}
		}
		// Index x's prefix.
		for i := 0; i < probePrefix; i++ {
			w := x.tokens[i]
			index[w] = append(index[w], entry{rec: int32(xi), pos: int32(i)})
		}
	}
	return nil
}

// mergeCount merges x[xi:] and y[yi:], returning base plus the number
// of shared tokens, terminating early once alpha is unreachable.
func mergeCount(x, y []int32, xi, yi, base, alpha int) int {
	o := base
	for xi < len(x) && yi < len(y) {
		if o+minInt(len(x)-xi, len(y)-yi) < alpha {
			return o // cannot reach alpha anymore
		}
		switch {
		case x[xi] == y[yi]:
			o++
			xi++
			yi++
		case x[xi] < y[yi]:
			xi++
		default:
			yi++
		}
	}
	return o
}

// canonicalize converts the collection to token-rank records sorted by
// increasing size: tokens are remapped to their rank in increasing
// document frequency, and each record's tokens are sorted by rank.
func canonicalize(c *vector.Collection) []record {
	df := make([]int32, c.Dim)
	for _, v := range c.Vecs {
		for _, ind := range v.Ind {
			df[ind]++
		}
	}
	perm := make([]int32, c.Dim)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return df[perm[a]] < df[perm[b]] })
	rank := make([]int32, c.Dim)
	for r, f := range perm {
		rank[f] = int32(r)
	}
	records := make([]record, 0, len(c.Vecs))
	for id, v := range c.Vecs {
		toks := make([]int32, v.Len())
		for i, ind := range v.Ind {
			toks[i] = rank[ind]
		}
		sort.Slice(toks, func(a, b int) bool { return toks[a] < toks[b] })
		records = append(records, record{id: int32(id), tokens: toks})
	}
	sort.SliceStable(records, func(a, b int) bool {
		return len(records[a].tokens) < len(records[b].tokens)
	})
	return records
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
