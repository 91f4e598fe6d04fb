package core

import (
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// kernel is the measure-independent engine of BayesLSH verification:
// the round loop of Algorithms 1 and 2 with the §4.3 optimizations
// (minMatches pruning table, concentration cache), and every
// verification entry point built on it. The loop is one-sided: it
// compares a query signature against corpus vectors, and a candidate
// row (a, partners) is verified with a's stored signature as the
// query. The three verifier instantiations (Jaccard, Cosine, 1-bit
// Jaccard) embed a kernel and differ only in how signatures are read
// and compared and how the posterior is evaluated, which they supply
// as the stored/qmatch/estimate/concentrated hooks; the kernel's
// exported methods are their whole verification API (see Verifier and
// QueryVerifier, plus the collecting VerifyParallelCtx and
// VerifyLiteParallelCtx).
//
// A kernel is safe for concurrent use: minM and ns are immutable after
// construction, the concentration cache uses atomic cells (decisions
// are pure functions of (m, n), so racing writers store the same
// value), and the hooks must be pure (they are — they read only
// immutable verifier state and signature prefixes guarded by
// params.Ensure, plus the calling query's own signature prefix guarded
// by QuerySig.Ensure).
type kernel struct {
	params Params
	ns     []int
	minM   []int
	conc   *concCache

	// stored returns corpus vector id's signature in query form, with
	// no Ensure: the query of the row whose left vector is id.
	stored func(id int32) QuerySig
	// qmatch counts matching hashes of the query q and corpus vector id
	// over hash positions [from, to).
	qmatch func(q *QuerySig, id int32, from, to int) int
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

// ensure extends both sides of a comparison to n hashes before a round
// reads [n−K, n): the query through q.Ensure, called only when the
// round goes deeper than any earlier round of this query did, and
// corpus vector id through params.Ensure. Either hook may be nil
// (already deep enough).
func (kr *kernel) ensure(q *QuerySig, id int32, n int) {
	if q.Ensure != nil && n > q.depth {
		q.Ensure(n)
		q.depth = n
	}
	if ensure := kr.params.Ensure; ensure != nil {
		ensure(id, n)
	}
}

// verifyOne runs the BayesLSH round loop (Algorithm 1) for corpus
// vector id against the query q, updating st, and reports whether the
// pair is accepted and with which estimate. stop (nil for "not
// cancelable") is polled between rounds; a stopped pair is abandoned
// unaccepted, which is safe because the caller discards all output
// once it observes the cancellation.
func (kr *kernel) verifyOne(q *QuerySig, id int32, stop *shard.Stopper, st *Stats) (float64, bool) {
	k := kr.params.K
	m := 0
	for round, n := range kr.ns {
		if stop.Stopped() {
			return 0, false
		}
		kr.ensure(q, id, n)
		m += kr.qmatch(q, id, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			// Rounds not reached count this pair as gone.
			st.Pruned++
			return 0, false
		}
		st.SurvivorsByRound[round]++
		accepted, ok := kr.conc.lookup(round, m)
		if ok {
			st.CacheHits++
		} else {
			st.InferenceCalls++
			accepted = kr.concentrated(m, n)
			kr.conc.store(round, m, accepted)
		}
		if accepted {
			// Later rounds still count an accepted pair as a survivor
			// (it reached the output set).
			for r := round + 1; r < len(kr.ns); r++ {
				st.SurvivorsByRound[r]++
			}
			return kr.estimate(m, n), true
		}
	}
	// Ran out of hashes: accept with the current estimate.
	return kr.estimate(m, kr.params.MaxHashes), true
}

// survivesLite runs the pruning-only round loop of BayesLSH-Lite
// (Algorithm 2) for corpus vector id against the query q over nRounds
// rounds, updating st. It reports whether the pair survived pruning
// (and so needs exact verification). stop follows the verifyOne
// contract.
func (kr *kernel) survivesLite(q *QuerySig, id int32, nRounds int, stop *shard.Stopper, st *Stats) bool {
	k := kr.params.K
	m := 0
	for round := 0; round < nRounds; round++ {
		if stop.Stopped() {
			return false
		}
		n := kr.ns[round]
		kr.ensure(q, id, n)
		m += kr.qmatch(q, id, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			st.Pruned++
			return false
		}
		st.SurvivorsByRound[round]++
	}
	return true
}

// rowQuery returns the query form of a row's left vector a, for one
// batch of rows: a's stored signature, deepened through
// params.Ensure(a, ·). Each call reuses one QuerySig, so a batch
// allocates its query state once, not once per row.
func (kr *kernel) rowQuery() func(a int32) *QuerySig {
	var q QuerySig
	var left int32
	var deepen func(n int)
	if ensure := kr.params.Ensure; ensure != nil {
		deepen = func(n int) { ensure(left, n) }
	}
	return func(a int32) *QuerySig {
		q, left = kr.stored(a), a
		q.Ensure = deepen
		return &q
	}
}

// VerifyRows runs BayesLSH (Algorithm 1) over a batch of candidate
// rows, each row's left vector verified as the query against its
// partners, and returns the accepted pairs in row order with the
// batch's statistics. stop (nil for "not cancelable") is polled between
// pairs and between rounds; a stopped batch returns (nil, Stats{}).
func (kr *kernel) VerifyRows(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, Stats) {
	st := Stats{SurvivorsByRound: make([]int, len(kr.ns))}
	var out []pair.Result
	query := kr.rowQuery()
	for a, bs := range rows {
		q := query(a)
		st.Candidates += len(bs)
		for _, b := range bs {
			if stop.Stopped() {
				return nil, Stats{}
			}
			if sim, ok := kr.verifyOne(q, b, stop, &st); ok {
				out = append(out, pair.Result{A: a, B: b, Sim: sim})
			}
		}
	}
	if stop.Stopped() {
		return nil, Stats{}
	}
	st.Accepted = len(out)
	return out, st
}

// VerifyRowsLite runs BayesLSH-Lite (Algorithm 2) over a batch of
// candidate rows: prune within the first h hashes, then verify
// survivors exactly with sim (which must be safe for concurrent use),
// keeping pairs with similarity >= t. stop follows the VerifyRows
// contract.
func (kr *kernel) VerifyRowsLite(rows pair.Rows, h int, sim ExactSimFunc, stop *shard.Stopper) ([]pair.Result, Stats) {
	nRounds := liteRounds(h, kr.params.K, len(kr.ns))
	st := Stats{SurvivorsByRound: make([]int, nRounds)}
	var out []pair.Result
	query := kr.rowQuery()
	for a, bs := range rows {
		q := query(a)
		st.Candidates += len(bs)
		for _, b := range bs {
			if stop.Stopped() {
				return nil, Stats{}
			}
			if !kr.survivesLite(q, b, nRounds, stop, &st) {
				continue
			}
			st.ExactVerified++
			if s := sim(a, b); s >= kr.params.Threshold {
				out = append(out, pair.Result{A: a, B: b, Sim: s})
			}
		}
	}
	if stop.Stopped() {
		return nil, Stats{}
	}
	st.Accepted = len(out)
	return out, st
}

// Add sums one batch's counters into st, in any batch order. A batch
// abandoned on cancellation carries zero Stats, harmlessly.
func (st *Stats) Add(s Stats) {
	st.Candidates += s.Candidates
	st.Pruned += s.Pruned
	st.Accepted += s.Accepted
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
