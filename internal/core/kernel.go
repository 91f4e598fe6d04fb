package core

import (
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// kernel is the measure-independent engine of BayesLSH verification:
// the round loop of Algorithms 1 and 2 with the §4.3 optimizations
// (minMatches pruning table, concentration cache), and every
// verification entry point built on it. The three verifier
// instantiations (Jaccard, Cosine, 1-bit Jaccard) embed a kernel and
// differ only in how hashes are compared and how the posterior is
// evaluated, which they supply as the match/qmatch/estimate/
// concentrated hooks; the kernel's exported methods are their whole
// verification API (see Verifier and QueryVerifier, plus the
// collecting VerifyParallelCtx and VerifyLiteParallelCtx).
//
// A kernel is safe for concurrent use: minM and ns are immutable after
// construction, the concentration cache uses atomic cells (decisions
// are pure functions of (m, n), so racing writers store the same
// value), and the hooks must be pure (they are — they read only
// immutable verifier state and signature prefixes guarded by
// params.Ensure, plus, one-sided, the calling query's own signature
// prefix guarded by QuerySig.Ensure).
type kernel struct {
	params Params
	ns     []int
	minM   []int
	conc   *concCache

	// match counts matching hashes of vectors a and b over hash
	// positions [from, to).
	match func(a, b int32, from, to int) int
	// qmatch binds a query signature into the one-sided form of match:
	// matching hashes of the query and corpus vector id over [from, to).
	qmatch func(q QuerySig) func(id int32, from, to int) int
	// estimate is the MAP similarity estimate after the event M(m, n).
	estimate func(m, n int) float64
	// concentrated reports whether the posterior after M(m, n) is
	// concentrated enough to accept (Equation 6).
	concentrated func(m, n int) bool
}

// init builds the round schedule, pruning table and concentration
// cache for params, once the hooks are set. probAbove(m, n) must return
// Pr[S >= t | M(m, n)] and be monotone non-decreasing in m for fixed n.
func (kr *kernel) init(params Params, probAbove func(m, n int) float64) {
	kr.params = params
	kr.ns = rounds(params)
	kr.minM = minMatchesTable(kr.ns, func(m, n int) bool { return probAbove(m, n) >= params.Epsilon })
	kr.conc = newConcCache(kr.ns, params.K)
}

// Params returns the validated parameters in effect.
func (kr *kernel) Params() Params { return kr.params }

// verifyOne runs the full BayesLSH round loop (Algorithm 1) for one
// candidate pair, updating st and appending accepted pairs to out.
// stop (nil for "not cancelable") is polled between rounds; a stopped
// pair is abandoned mid-loop, which is safe because the caller
// discards all output once it observes the cancellation.
func (kr *kernel) verifyOne(c pair.Pair, stop *shard.Stopper, st *Stats, out *[]pair.Result) {
	k := kr.params.K
	m := 0
	pruned := false
	accepted := false
	for round, n := range kr.ns {
		if stop.Stopped() {
			return
		}
		if ensure := kr.params.Ensure; ensure != nil {
			ensure(c.A, n)
			ensure(c.B, n)
		}
		m += kr.match(c.A, c.B, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			pruned = true
			st.Pruned++
			// Rounds not reached count this pair as gone.
			break
		}
		st.SurvivorsByRound[round]++
		if cached, ok := kr.conc.lookup(round, m); ok {
			st.CacheHits++
			accepted = cached
		} else {
			st.InferenceCalls++
			cv := kr.concentrated(m, n)
			kr.conc.store(round, m, cv)
			accepted = cv
		}
		if accepted {
			*out = append(*out, pair.Result{A: c.A, B: c.B, Sim: kr.estimate(m, n)})
			// Later rounds still count an accepted pair as a survivor
			// (it reached the output set).
			for r := round + 1; r < len(kr.ns); r++ {
				st.SurvivorsByRound[r]++
			}
			break
		}
	}
	if !pruned && !accepted {
		// Ran out of hashes: accept with the current estimate.
		*out = append(*out, pair.Result{A: c.A, B: c.B, Sim: kr.estimate(m, kr.params.MaxHashes)})
	}
}

// verifyOneLite runs the pruning-only round loop of BayesLSH-Lite
// (Algorithm 2) for one candidate pair over nRounds rounds, updating
// st. It reports whether the pair survived pruning (and so needs exact
// verification). stop follows the verifyOne contract.
func (kr *kernel) verifyOneLite(c pair.Pair, nRounds int, stop *shard.Stopper, st *Stats) bool {
	k := kr.params.K
	m := 0
	for round := 0; round < nRounds; round++ {
		if stop.Stopped() {
			return false
		}
		n := kr.ns[round]
		if ensure := kr.params.Ensure; ensure != nil {
			ensure(c.A, n)
			ensure(c.B, n)
		}
		m += kr.match(c.A, c.B, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			st.Pruned++
			return false
		}
		st.SurvivorsByRound[round]++
	}
	return true
}

// batchFunc verifies one batch of candidates, returning its accepted
// results and statistics. stop follows the verifyOne contract; a
// stopped batch's output is discarded by the drivers.
type batchFunc func(cands []pair.Pair, stop *shard.Stopper) ([]pair.Result, Stats)

// verifyBatch is the batch body of BayesLSH (Algorithm 1).
func (kr *kernel) verifyBatch(cands []pair.Pair, stop *shard.Stopper) ([]pair.Result, Stats) {
	st := Stats{SurvivorsByRound: make([]int, len(kr.ns))}
	out := make([]pair.Result, 0, len(cands)/8+1)
	for _, c := range cands {
		if stop.Stopped() {
			return nil, Stats{}
		}
		kr.verifyOne(c, stop, &st, &out)
	}
	return out, st
}

// liteBatch returns the batch body of BayesLSH-Lite (Algorithm 2):
// prune within the first h hashes, then verify survivors exactly with
// sim, which must be safe for concurrent use (exact similarity over
// the immutable collection is).
func (kr *kernel) liteBatch(h int, sim ExactSimFunc) batchFunc {
	nRounds := liteRounds(h, kr.params.K, len(kr.ns))
	return func(cands []pair.Pair, stop *shard.Stopper) ([]pair.Result, Stats) {
		st := Stats{SurvivorsByRound: make([]int, nRounds)}
		var out []pair.Result
		for _, c := range cands {
			if stop.Stopped() {
				return nil, Stats{}
			}
			if !kr.verifyOneLite(c, nRounds, stop, &st) {
				continue
			}
			st.ExactVerified++
			if s := sim(c.A, c.B); s >= kr.params.Threshold {
				out = append(out, pair.Result{A: c.A, B: c.B, Sim: s})
			}
		}
		return out, st
	}
}

// add sums one batch's counters into st, in any batch order. A batch
// abandoned on cancellation carries zero Stats, harmlessly.
func (st *Stats) add(s Stats) {
	st.Pruned += s.Pruned
	st.ExactVerified += s.ExactVerified
	st.HashesCompared += s.HashesCompared
	st.InferenceCalls += s.InferenceCalls
	st.CacheHits += s.CacheHits
	if grow := len(s.SurvivorsByRound) - len(st.SurvivorsByRound); grow > 0 {
		st.SurvivorsByRound = append(st.SurvivorsByRound, make([]int, grow)...)
	}
	for i, v := range s.SurvivorsByRound {
		st.SurvivorsByRound[i] += v
	}
}
