package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// Params configures a BayesLSH verifier.
type Params struct {
	// Threshold is the similarity threshold t of the search.
	Threshold float64
	// Epsilon is the recall parameter ε: pairs whose posterior
	// probability of meeting the threshold falls below ε are pruned.
	Epsilon float64
	// Delta and Gamma are the accuracy parameters: accepted estimates
	// satisfy Pr[|Ŝ − S| >= δ] < γ. They are ignored by Lite
	// verification.
	Delta, Gamma float64
	// K is the number of hashes compared per round (default 32; the
	// paper uses one machine word of cosine hashes at a time).
	K int
	// MaxHashes caps the number of hashes examined per pair (default:
	// the full signature length, supplied by the constructor). If a
	// pair is still unresolved at the cap, it is accepted with the
	// current MAP estimate.
	MaxHashes int
	// Ensure, when non-nil, is called before hashes [0, n) of a
	// vector's signature are read, so lazily-materialized signature
	// stores can fill them on demand (the paper's "each point is only
	// hashed as many times as is necessary").
	Ensure func(id int32, n int)
}

// withDefaults validates p against a signature of length sigLen and
// fills in defaults.
func (p Params) withDefaults(sigLen int) (Params, error) {
	if p.Threshold <= 0 || p.Threshold > 1 {
		return p, fmt.Errorf("core: threshold %v outside (0, 1]", p.Threshold)
	}
	if p.Epsilon <= 0 || p.Epsilon >= 1 {
		return p, fmt.Errorf("core: epsilon %v outside (0, 1)", p.Epsilon)
	}
	if p.Delta < 0 || p.Delta >= 1 {
		return p, fmt.Errorf("core: delta %v outside [0, 1)", p.Delta)
	}
	if p.Gamma < 0 || p.Gamma >= 1 {
		return p, fmt.Errorf("core: gamma %v outside [0, 1)", p.Gamma)
	}
	if p.K == 0 {
		p.K = 32
	}
	if p.K < 0 {
		return p, fmt.Errorf("core: K %d must be positive", p.K)
	}
	if p.MaxHashes == 0 {
		p.MaxHashes = sigLen
	}
	if p.MaxHashes > sigLen {
		return p, fmt.Errorf("core: MaxHashes %d exceeds signature length %d", p.MaxHashes, sigLen)
	}
	p.MaxHashes -= p.MaxHashes % p.K
	if p.MaxHashes < p.K {
		return p, fmt.Errorf("core: MaxHashes smaller than one round of K=%d hashes", p.K)
	}
	return p, nil
}

// Stats reports what a verification run did. Its counters regenerate
// Figure 4 of the paper (candidates surviving per hashes examined).
type Stats struct {
	// Candidates is the number of input candidate pairs.
	Candidates int
	// Pruned counts pairs eliminated by the posterior threshold test.
	Pruned int
	// Accepted counts pairs that reached the output set.
	Accepted int
	// ExactVerified counts pairs verified by exact similarity (Lite).
	ExactVerified int
	// HashesCompared is the total number of hash comparisons.
	HashesCompared int64
	// SurvivorsByRound[i] is the number of candidates not yet pruned
	// after (i+1)*K hashes were examined (accepted pairs count as
	// survivors; this is Figure 4's y-axis).
	SurvivorsByRound []int
	// InferenceCalls counts posterior computations actually performed;
	// CacheHits counts concentration decisions served from the cache.
	InferenceCalls int
	// CacheHits counts concentration queries answered by the cache.
	CacheHits int
}

// rounds returns the per-round hash counts for params.
func rounds(p Params) []int {
	var ns []int
	for n := p.K; n <= p.MaxHashes; n += p.K {
		ns = append(ns, n)
	}
	return ns
}

// minMatchesTable precomputes, for each round's n, the smallest m such
// that survive(m, n) holds (Pr[S >= t | M(m,n)] >= ε). survive must be
// monotone non-decreasing in m for fixed n. A value of n+1 means no m
// survives at that n.
func minMatchesTable(ns []int, survive func(m, n int) bool) []int {
	table := make([]int, len(ns))
	for i, n := range ns {
		lo, hi := 0, n+1 // invariant: lo-1 fails (or lo==0), hi survives or hi==n+1
		for lo < hi {
			mid := (lo + hi) / 2
			if survive(mid, n) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		table[i] = lo
	}
	return table
}

// concCache memoizes the concentration decision per (round, m). Cells
// hold 0 unknown, 1 concentrated, 2 not concentrated, and are accessed
// atomically so one cache can be shared by concurrent verification
// workers: the decision is a pure function of (round, m), so racing
// writers store the same value and a lost update only costs a
// recomputation.
type concCache struct {
	perRound [][]uint32
	k        int
}

func newConcCache(ns []int, k int) *concCache {
	c := &concCache{perRound: make([][]uint32, len(ns)), k: k}
	for i, n := range ns {
		c.perRound[i] = make([]uint32, n+1)
	}
	return c
}

// lookup returns the cached decision and whether it was present.
func (c *concCache) lookup(round, m int) (bool, bool) {
	switch atomic.LoadUint32(&c.perRound[round][m]) {
	case 1:
		return true, true
	case 2:
		return false, true
	default:
		return false, false
	}
}

func (c *concCache) store(round, m int, v bool) {
	if v {
		atomic.StoreUint32(&c.perRound[round][m], 1)
	} else {
		atomic.StoreUint32(&c.perRound[round][m], 2)
	}
}

// ExactSimFunc computes the exact similarity of a candidate pair; it
// is supplied to Lite verification by the caller (which knows the
// collection and measure).
type ExactSimFunc func(a, b int32) float64

// Verifier is the common interface of the Jaccard, Cosine and 1-bit
// Jaccard instantiations of BayesLSH. All verifiers are safe for
// concurrent use after construction (signature stores supplied via
// Params.Ensure must be too; the library's stores are).
//
// Verification reads candidates as rows (pair.Rows): each row's left
// vector a is the query of the one-sided round loop, compared against
// its partners. VerifyRows and VerifyRowsLite verify one batch of rows
// on the calling goroutine — the form banded LSH calls from the worker
// that enumerated the rows. The pair-slice forms cut candidate batches
// of batch pairs into rows, verify them on workers goroutines, and
// send each batch's accepted results to emit, with the batch's slot,
// as soon as the batch finishes (the shard.StreamCtx contract).
// Collected in slot order (as VerifyParallelCtx and
// VerifyLiteParallelCtx do) the results, and all returned Stats except
// the CacheHits/InferenceCalls split, are identical for any worker
// count, batch size and row cut. An emit error or a canceled ctx stops
// the run and is returned with Stats{}.
type Verifier interface {
	// VerifyRows runs BayesLSH (Algorithm 1), prune and estimate, over
	// one batch of rows, returning accepted pairs in row order. stop
	// (nil for "not cancelable") is polled between rounds and every
	// 1,024 partners within a round; a stopped batch returns
	// (nil, Stats{}).
	VerifyRows(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, Stats)
	// VerifyRowsLite runs BayesLSH-Lite (Algorithm 2) over one batch of
	// rows: prune within the first h hashes, then verify survivors
	// exactly with sim (which must be safe for concurrent use), keeping
	// pairs with similarity >= t. stop follows VerifyRows.
	VerifyRowsLite(rows pair.Rows, h int, sim ExactSimFunc, stop *shard.Stopper) ([]pair.Result, Stats)
	// VerifyStream is VerifyRows over a candidate slice.
	VerifyStream(ctx context.Context, cands []pair.Pair, workers, batch int, emit func(slot int, rs []pair.Result) error) (Stats, error)
	// VerifyLiteStream is VerifyRowsLite over a candidate slice.
	VerifyLiteStream(ctx context.Context, cands []pair.Pair, h int, sim ExactSimFunc, workers, batch int, emit func(slot int, rs []pair.Result) error) (Stats, error)
}
