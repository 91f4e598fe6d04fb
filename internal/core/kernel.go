package core

import (
	"cmp"
	"slices"
	"sync"

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
// as the stored/qmatchAll/estimate/concentrated hooks; the kernel's
// exported methods are their whole verification API (see Verifier and
// QueryVerifier, plus the collecting VerifyParallelCtx and
// VerifyLiteParallelCtx).
//
// A kernel is safe for concurrent use: minM and ns are immutable after
// construction, each call draws its own round scratch from the pool,
// the concentration cache uses atomic cells (decisions are pure
// functions of (m, n), so racing writers store the same value), and
// the hooks must be pure (they are — they read only
// immutable verifier state and signature prefixes guarded by
// params.Ensure, plus the calling query's own signature prefix guarded
// by QuerySig.Ensure).
type kernel struct {
	params Params
	ns     []int
	minM   []int
	conc   *concCache
	// scratch pools *roundScratch for the round loop.
	scratch *sync.Pool

	// stored returns corpus vector id's signature in query form, with
	// no Ensure: the query of the row whose left vector is id.
	stored func(id int32) QuerySig
	// qmatchAll adds to m[i] the number of matching hashes of the query
	// q and corpus vector ids[i] over hash positions [from, to), for
	// every i.
	qmatchAll func(q *QuerySig, ids []int32, from, to int, m []int32)
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
	kr.scratch = &sync.Pool{New: func() any { return new(roundScratch) }}
}

// Params returns the validated parameters in effect.
func (kr *kernel) Params() Params { return kr.params }

// partnerChunk is how many partners a round compares between two
// polls of the stopper, so a query with a huge candidate set still
// aborts promptly.
const partnerChunk = 1024

// roundScratch is the working set of one verification call, drawn from
// the kernel's pool and reused row after row: the partners still alive
// after the last round (their ids, their positions in the candidate
// list and their running match counts), and the pairs accepted so far.
type roundScratch struct {
	ids, pos, m []int32
	acc         []acceptance
}

// acceptance is one accepted partner: its position in the candidate
// list and its similarity estimate.
type acceptance struct {
	pos int32
	est float64
}

// getScratch draws round scratch from the pool; the caller puts it
// back once it has read the results.
func (kr *kernel) getScratch() *roundScratch { return kr.scratch.Get().(*roundScratch) }

// reserve grows the alive lists to hold n partners.
func (s *roundScratch) reserve(n int) {
	if cap(s.ids) < n {
		n = max(n, 2*cap(s.ids))
		s.ids, s.pos, s.m = make([]int32, n), make([]int32, n), make([]int32, n)
	}
}

// run is the round loop of BayesLSH (Algorithm 1) and BayesLSH-Lite
// (Algorithm 2) for the query q against the candidate corpus ids,
// updating st. It runs round-major: round r compares every partner
// still alive, the survivors are compacted in candidate order, and only
// then does round r+1 run. Before a round reads hashes [n−K, n), the
// query is extended through q.Ensure, only when the round goes deeper
// than any earlier round of this query did, and each alive partner
// through params.Ensure.
//
// With lite false, run executes every round with the concentration
// test, leaves the accepted pairs in s.acc in candidate order, and
// accepts whatever survives the last round with its estimate at
// MaxHashes. With lite true, it executes the first nRounds pruning
// rounds only and returns the surviving ids, in candidate order, for
// exact verification. stop (nil for "not cancelable") is polled
// between rounds and every partnerChunk partners within a round; run
// reports false once it trips, and the caller must then discard s and
// st.
func (kr *kernel) run(q *QuerySig, ids []int32, nRounds int, lite bool, s *roundScratch, stop *shard.Stopper, st *Stats) ([]int32, bool) {
	k := kr.params.K
	ensure := kr.params.Ensure
	s.reserve(len(ids))
	alive, pos, m := ids, []int32(nil), s.m[:len(ids)]
	clear(m)
	s.acc = s.acc[:0]
	for round := range nRounds {
		// Figure 4 counts a pair accepted in an earlier round as a
		// survivor of every later round.
		st.SurvivorsByRound[round] += len(s.acc)
		if len(alive) == 0 {
			continue
		}
		n := kr.ns[round]
		if q.Ensure != nil && n > q.depth {
			q.Ensure(n)
			q.depth = n
		}
		minM := int32(kr.minM[round])
		survived, kept := 0, 0
		for lo := 0; lo < len(alive); lo += partnerChunk {
			if stop.Stopped() {
				return nil, false
			}
			hi := min(lo+partnerChunk, len(alive))
			if ensure != nil {
				for _, id := range alive[lo:hi] {
					ensure(id, n)
				}
			}
			kr.qmatchAll(q, alive[lo:hi], n-k, n, m[lo:hi])
			for i := lo; i < hi; i++ {
				mi := m[i]
				if mi < minM {
					continue
				}
				survived++
				p := int32(i)
				if pos != nil {
					p = pos[i]
				}
				if !lite && kr.accepts(round, int(mi), n, st) {
					s.acc = append(s.acc, acceptance{p, kr.estimate(int(mi), n)})
					continue
				}
				s.ids[kept], s.pos[kept], m[kept] = alive[i], p, mi
				kept++
			}
		}
		st.HashesCompared += int64(k) * int64(len(alive))
		st.Pruned += len(alive) - survived
		st.SurvivorsByRound[round] += survived
		alive, pos, m = s.ids[:kept], s.pos[:kept], m[:kept]
	}
	if lite {
		return alive, true
	}
	// Ran out of hashes: accept with the current estimate.
	for i, mi := range m {
		s.acc = append(s.acc, acceptance{pos[i], kr.estimate(int(mi), kr.params.MaxHashes)})
	}
	// Each round accepts in candidate order; merge the rounds.
	slices.SortFunc(s.acc, func(x, y acceptance) int { return cmp.Compare(x.pos, y.pos) })
	return nil, true
}

// accepts reports whether the posterior after M(m, n) in round round
// is concentrated enough to accept (Equation 6), through the
// concentration cache.
func (kr *kernel) accepts(round, m, n int, st *Stats) bool {
	accepted, ok := kr.conc.lookup(round, m)
	if ok {
		st.CacheHits++
		return accepted
	}
	st.InferenceCalls++
	accepted = kr.concentrated(m, n)
	kr.conc.store(round, m, accepted)
	return accepted
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
// rounds and every partnerChunk partners within a round; a stopped
// batch returns (nil, Stats{}).
func (kr *kernel) VerifyRows(rows pair.Rows, stop *shard.Stopper) ([]pair.Result, Stats) {
	st := Stats{SurvivorsByRound: make([]int, len(kr.ns))}
	var out []pair.Result
	sc := kr.getScratch()
	defer kr.scratch.Put(sc)
	query := kr.rowQuery()
	for a, bs := range rows {
		st.Candidates += len(bs)
		if _, ok := kr.run(query(a), bs, len(kr.ns), false, sc, stop, &st); !ok {
			return nil, Stats{}
		}
		for _, ac := range sc.acc {
			out = append(out, pair.Result{A: a, B: bs[ac.pos], Sim: ac.est})
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
	sc := kr.getScratch()
	defer kr.scratch.Put(sc)
	query := kr.rowQuery()
	for a, bs := range rows {
		st.Candidates += len(bs)
		survivors, ok := kr.run(query(a), bs, nRounds, true, sc, stop, &st)
		if !ok {
			return nil, Stats{}
		}
		for i, b := range survivors {
			if i%partnerChunk == 0 && stop.Stopped() {
				return nil, Stats{}
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
