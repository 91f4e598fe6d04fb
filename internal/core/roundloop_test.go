package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/vector"
)

// oracle is the pair-major round loop: every round of one partner
// before the first round of the next, each match count read one pair
// at a time through match. The kernel's round-major loop must
// reproduce it bit for bit. It decides acceptance with the posterior
// predicate itself, not the accept table.
type oracle struct {
	kr    *kernel
	match func(q *QuerySig, id int32, from, to int) int
}

// ensure extends both sides of a comparison to n hashes before a round
// reads [n−K, n): the query only when the round goes deeper than any
// earlier round of this query did. It ignores the watermark: Ensure at
// a depth the store holds changes nothing.
func (o oracle) ensure(q *QuerySig, id int32, n int) {
	if q.Ensure != nil && n > q.depth {
		q.Ensure(n)
		q.depth = n
	}
	if ensure := o.kr.params.Ensure; ensure != nil {
		ensure(id, n)
	}
}

// verifyOne runs Algorithm 1 for one pair, reporting whether it is
// accepted and with which estimate.
func (o oracle) verifyOne(q *QuerySig, id int32, st *Stats) (float64, bool) {
	kr := o.kr
	k := kr.params.K
	m := 0
	for round, n := range kr.ns {
		o.ensure(q, id, n)
		m += o.match(q, id, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			st.Pruned++
			return 0, false
		}
		st.SurvivorsByRound[round]++
		st.CacheHits++
		if kr.concentrated(m, n) {
			for r := round + 1; r < len(kr.ns); r++ {
				st.SurvivorsByRound[r]++
			}
			return kr.estimate(m, n), true
		}
	}
	return kr.estimate(m, kr.params.MaxHashes), true
}

// survivesLite runs the first nRounds pruning rounds of Algorithm 2 for
// one pair, reporting whether it needs exact verification.
func (o oracle) survivesLite(q *QuerySig, id int32, nRounds int, st *Stats) bool {
	kr := o.kr
	k := kr.params.K
	m := 0
	for round := 0; round < nRounds; round++ {
		n := kr.ns[round]
		o.ensure(q, id, n)
		m += o.match(q, id, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			st.Pruned++
			return false
		}
		st.SurvivorsByRound[round]++
	}
	return true
}

func (o oracle) rows(rows pair.Rows) ([]pair.Result, Stats) {
	st := Stats{SurvivorsByRound: make([]int, len(o.kr.ns))}
	var out []pair.Result
	query := o.kr.rowQuery()
	for a, bs := range rows {
		q := query(a)
		st.Candidates += len(bs)
		for _, b := range bs {
			if sim, ok := o.verifyOne(q, b, &st); ok {
				out = append(out, pair.Result{A: a, B: b, Sim: sim})
			}
		}
	}
	st.Accepted = len(out)
	return out, st
}

func (o oracle) rowsLite(rows pair.Rows, h int, sim ExactSimFunc) ([]pair.Result, Stats) {
	nRounds := liteRounds(h, o.kr.params.K, len(o.kr.ns))
	st := Stats{SurvivorsByRound: make([]int, nRounds)}
	var out []pair.Result
	query := o.kr.rowQuery()
	for a, bs := range rows {
		q := query(a)
		st.Candidates += len(bs)
		for _, b := range bs {
			if !o.survivesLite(q, b, nRounds, &st) {
				continue
			}
			st.ExactVerified++
			if s := sim(a, b); s >= o.kr.params.Threshold {
				out = append(out, pair.Result{A: a, B: b, Sim: s})
			}
		}
	}
	st.Accepted = len(out)
	return out, st
}

func (o oracle) query(q QuerySig, ids []int32) ([]pair.Hit, Stats) {
	st := Stats{Candidates: len(ids), SurvivorsByRound: make([]int, len(o.kr.ns))}
	out := []pair.Hit{}
	for _, id := range ids {
		if sim, ok := o.verifyOne(&q, id, &st); ok {
			out = append(out, pair.Hit{ID: id, Sim: sim})
		}
	}
	st.Accepted = len(out)
	return out, st
}

func (o oracle) queryLite(q QuerySig, ids []int32, h int, sim QuerySimFunc) ([]pair.Hit, Stats) {
	nRounds := liteRounds(h, o.kr.params.K, len(o.kr.ns))
	st := Stats{Candidates: len(ids), SurvivorsByRound: make([]int, nRounds)}
	var out []pair.Hit
	for _, id := range ids {
		if !o.survivesLite(&q, id, nRounds, &st) {
			continue
		}
		st.ExactVerified++
		if s := sim(id); s >= o.kr.params.Threshold {
			out = append(out, pair.Hit{ID: id, Sim: s})
		}
	}
	st.Accepted = len(out)
	return out, st
}

// plantedCorpus returns groups of five binary vectors — a random base
// and four copies with 1, 3, 6 and 10 of its features replaced, so
// their pairs are accepted or pruned in many different rounds — and
// candidates pairing every vector with the rest of its group and with
// a random quarter of the vectors after it, in canonical order.
func plantedCorpus(groups int, seed uint64) (*vector.Collection, []pair.Pair) {
	const dim, length = 600, 30
	src := rng.New(seed)
	c := &vector.Collection{Dim: dim}
	feature := func() vector.Entry { return vector.Entry{Ind: uint32(src.Intn(dim)), Val: 1} }
	for range groups {
		base := make([]vector.Entry, length)
		for i := range base {
			base[i] = feature()
		}
		c.Vecs = append(c.Vecs, vector.New(base))
		for _, replace := range []int{1, 3, 6, 10} {
			dup := append([]vector.Entry(nil), base...)
			for i := range replace {
				dup[i] = feature()
			}
			c.Vecs = append(c.Vecs, vector.New(dup))
		}
	}
	var cands []pair.Pair
	for a := range int32(len(c.Vecs)) {
		for b := a + 1; b < int32(len(c.Vecs)); b++ {
			if a/5 == b/5 || src.Intn(4) == 0 {
				cands = append(cands, pair.Pair{A: a, B: b})
			}
		}
	}
	return c, cands
}

// oracleCase builds a fresh verifier of one kind, with or without lazy
// corpus signatures, and the oracle that mirrors it. When lazy, every
// Params.Ensure is recorded in depth (the deepest n asked of each id)
// and filled reports how deep the signature store actually hashed id.
type oracleCase struct {
	name  string
	build func(t *testing.T, lazy bool) (kr *kernel, o oracle, filled func(id int32) int)
}

func oracleCases(c *vector.Collection, depth []int) []oracleCase {
	const maxHashes = 512
	params := func(th float64, ensure func(int32, int)) Params {
		p := Params{Threshold: th, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03}
		if ensure != nil {
			p.Ensure = func(id int32, n int) {
				depth[id] = max(depth[id], n)
				ensure(id, n)
			}
		}
		return p
	}
	bitsMatch := func(sigs [][]uint64) func(q *QuerySig, id int32, from, to int) int {
		return func(q *QuerySig, id int32, from, to int) int { return sighash.MatchCount(q.Bits, sigs[id], from, to) }
	}
	normalized := c.Normalize()
	return []oracleCase{
		{"cosine", func(t *testing.T, lazy bool) (*kernel, oracle, func(int32) int) {
			var sigs [][]uint64
			var ensure func(int32, int)
			var filled func(int32) int
			if lazy {
				store := sighash.NewStore(normalized, sighash.NewBlockFamily(c.Dim, maxHashes, 64, 9))
				sigs, ensure, filled = store.Sigs(), store.Ensure, store.FilledBits
			} else {
				sigs = sighash.NewFamily(c.Dim, maxHashes, 9).SignatureAll(normalized)
			}
			v, err := NewCosine(sigs, maxHashes, params(0.6, ensure))
			if err != nil {
				t.Fatal(err)
			}
			return &v.kernel, oracle{&v.kernel, bitsMatch(sigs)}, filled
		}},
		{"jaccard", func(t *testing.T, lazy bool) (*kernel, oracle, func(int32) int) {
			fam := minhash.NewFamily(maxHashes, 1000)
			var sigs [][]uint32
			var ensure func(int32, int)
			var filled func(int32) int
			if lazy {
				store := minhash.NewStore(c, fam, 32)
				sigs, ensure, filled = store.Sigs(), store.Ensure, store.FilledHashes
			} else {
				sigs = fam.SignatureAll(c)
			}
			v, err := NewJaccard(sigs, stats.Beta{Alpha: 1, Beta: 1}, params(0.5, ensure))
			if err != nil {
				t.Fatal(err)
			}
			match := func(q *QuerySig, id int32, from, to int) int { return minhash.Matches(q.Min, sigs[id], from, to) }
			return &v.kernel, oracle{&v.kernel, match}, filled
		}},
		{"onebit", func(t *testing.T, lazy bool) (*kernel, oracle, func(int32) int) {
			sigs := minhash.PackOneBitAll(minhash.NewFamily(maxHashes, 1000).SignatureAll(c))
			var ensure func(int32, int)
			if lazy {
				ensure = func(int32, int) {}
			}
			v, err := NewOneBitJaccard(sigs, maxHashes, params(0.5, ensure))
			if err != nil {
				t.Fatal(err)
			}
			return &v.kernel, oracle{&v.kernel, bitsMatch(sigs)}, nil
		}},
	}
}

// requireSameAsOracle fails unless a round-loop outcome equals the
// oracle's: the same accepted pairs in the same order with the same
// estimate bits, and equal Stats.
func requireSameAsOracle[R comparable](t *testing.T, what string, got, want []R, gotSt, wantSt Stats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accepted, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d is %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("%s: stats %+v, oracle %+v", what, gotSt, wantSt)
	}
}

// TestRoundLoopMatchesPairMajorOracle runs the round-major loop and the
// pair-major oracle on fresh twin verifiers — cosine, Jaccard minhash
// and 1-bit, Algorithm 1 and Lite, corpus signatures lazy and eager,
// rows and served queries — and requires equal output, equal counters
// and, when lazy, every corpus vector asked for and hashed to the same
// depth, and the query signature extended through the same depths.
func TestRoundLoopMatchesPairMajorOracle(t *testing.T) {
	c, cands := plantedCorpus(24, 17)
	exactSim := func(a, b int32) float64 { return vector.Jaccard(c.Vecs[a], c.Vecs[b]) }
	const h = 96
	loopDepth, oracleDepth := make([]int, len(c.Vecs)), make([]int, len(c.Vecs))
	cases, twins := oracleCases(c, loopDepth), oracleCases(c, oracleDepth)
	accepted := 0
	for ci, tc := range cases {
		for _, lazy := range []bool{false, true} {
			for _, lite := range []bool{false, true} {
				name := tc.name
				if lazy {
					name += ", lazy"
				}
				if lite {
					name += ", lite"
				}
				clear(loopDepth)
				clear(oracleDepth)
				kr, _, filled := tc.build(t, lazy)
				_, o, oracleFilled := twins[ci].build(t, lazy)
				// The twins share one accept table; build it before
				// either run, so neither is charged for it.
				kr.acceptTable(&Stats{})

				var got, want []pair.Result
				var gotSt, wantSt Stats
				if lite {
					got, gotSt = kr.VerifyRowsLite(pair.RowsOf(cands), h, exactSim, nil)
					want, wantSt = o.rowsLite(pair.RowsOf(cands), h, exactSim)
				} else {
					got, gotSt = kr.VerifyRows(pair.RowsOf(cands), nil)
					want, wantSt = o.rows(pair.RowsOf(cands))
				}
				requireSameAsOracle(t, name+", rows", got, want, gotSt, wantSt)
				accepted += len(got)

				// A served query: vector q against every vector, with a
				// query signature extended through its own Ensure.
				for _, q := range []int32{0, 5, 7} {
					ids := make([]int32, 0, len(c.Vecs))
					for id := range int32(len(c.Vecs)) {
						if id != q {
							ids = append(ids, id)
						}
					}
					var gotEnsured, wantEnsured []int
					sig := func(ensured *[]int) QuerySig {
						s := kr.stored(q)
						s.Ensure = func(n int) { *ensured = append(*ensured, n) }
						return s
					}
					var gotHits, wantHits []pair.Hit
					if lite {
						sim := func(id int32) float64 { return exactSim(q, id) }
						gotHits, gotSt, _ = kr.VerifyQueryLiteStop(sig(&gotEnsured), ids, h, sim, nil)
						wantHits, wantSt = o.queryLite(sig(&wantEnsured), ids, h, sim)
					} else {
						gotHits, gotSt = kr.VerifyQuery(sig(&gotEnsured), ids)
						wantHits, wantSt = o.query(sig(&wantEnsured), ids)
					}
					requireSameAsOracle(t, name+", query", gotHits, wantHits, gotSt, wantSt)
					if !slices.Equal(gotEnsured, wantEnsured) {
						t.Fatalf("%s, query %d: query extended through %v, oracle %v", name, q, gotEnsured, wantEnsured)
					}
				}

				if !slices.Equal(loopDepth, oracleDepth) {
					t.Fatalf("%s: Params.Ensure depths %v, oracle %v", name, loopDepth, oracleDepth)
				}
				if filled != nil {
					for id := range int32(len(c.Vecs)) {
						if g, w := filled(id), oracleFilled(id); g != w {
							t.Fatalf("%s: vector %d hashed to %d, oracle %d", name, id, g, w)
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no pair accepted: the planted duplicates exercise nothing")
	}
}

// TestRoundLoopCancelBetweenRounds trips the stopper between two rounds
// in the middle of a row or query (from the query signature's Ensure,
// so the cut is deterministic) and requires VerifyRows to return
// (nil, Stats{}) and VerifyQueryStop the stopper's error, for
// Algorithm 1 and Lite, with no signature read after the trip. The
// next call on the same verifier, which draws the same pooled scratch,
// must return the oracle's output.
func TestRoundLoopCancelBetweenRounds(t *testing.T) {
	c, cands := plantedCorpus(12, 23)
	exactSim := func(a, b int32) float64 { return vector.Jaccard(c.Vecs[a], c.Vecs[b]) }
	sigs := sighash.NewFamily(c.Dim, 512, 9).SignatureAll(c.Normalize())
	var trip func(n int)
	v, err := NewCosine(sigs, 512, Params{
		Threshold: 0.6, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03,
		Ensure: func(_ int32, n int) {
			if trip != nil {
				trip(n)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	kr := &v.kernel
	o := oracle{kr, func(q *QuerySig, id int32, from, to int) int { return sighash.MatchCount(q.Bits, sigs[id], from, to) }}
	const h, cut = 128, 3 * 32 // the third round; Lite runs four
	// armed returns a stopper that trips when a round first reads
	// hashes up to cut, and reports whether it did; after the trip,
	// reads counts the signature reads that followed.
	reads := 0
	armed := func() (*shard.Stopper, *bool) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		stop, tripped := shard.NewStopper(ctx), new(bool)
		t.Cleanup(stop.Close)
		reads = 0
		trip = func(n int) {
			if *tripped {
				reads++
			} else if n == cut {
				*tripped = true
				cancel()
				for !stop.Stopped() {
					runtime.Gosched() // let the stopper's watcher run
				}
			}
		}
		return stop, tripped
	}
	ids := make([]int32, len(c.Vecs)-1)
	for i := range ids {
		ids[i] = int32(i + 1)
	}
	query := func() QuerySig { return QuerySig{Bits: sigs[0], Ensure: func(n int) { trip(n) }} }
	querySim := func(id int32) float64 { return exactSim(0, id) }

	for _, lite := range []bool{false, true} {
		rows := func(stop *shard.Stopper) ([]pair.Result, Stats) {
			if lite {
				return kr.VerifyRowsLite(pair.RowsOf(cands), h, exactSim, stop)
			}
			return kr.VerifyRows(pair.RowsOf(cands), stop)
		}
		queryStop := func(stop *shard.Stopper) ([]pair.Hit, Stats, error) {
			if lite {
				return kr.VerifyQueryLiteStop(query(), ids, h, querySim, stop)
			}
			return kr.VerifyQueryStop(query(), ids, stop)
		}

		stop, tripped := armed()
		out, st := rows(stop)
		if !*tripped || reads != 0 || out != nil || !reflect.DeepEqual(st, Stats{}) {
			t.Fatalf("lite %v: rows canceled at hash %d (tripped %v, %d reads after) = (%d results, %+v)", lite, cut, *tripped, reads, len(out), st)
		}
		trip = func(int) {}
		want, wantSt := o.rows(pair.RowsOf(cands))
		if lite {
			want, wantSt = o.rowsLite(pair.RowsOf(cands), h, exactSim)
		}
		got, gotSt := rows(nil)
		requireSameAsOracle(t, "rows after a canceled call", got, want, gotSt, wantSt)

		stop, tripped = armed()
		hits, qst, err := queryStop(stop)
		if !*tripped || reads != 0 || hits != nil || !reflect.DeepEqual(qst, Stats{}) || !errors.Is(err, context.Canceled) {
			t.Fatalf("lite %v: query canceled at hash %d (tripped %v, %d reads after) = (%d hits, %+v, %v)", lite, cut, *tripped, reads, len(hits), qst, err)
		}
		trip = func(int) {}
		wantHits, wantQst := o.query(query(), ids)
		if lite {
			wantHits, wantQst = o.queryLite(query(), ids, h, querySim)
		}
		gotHits, gotQst, err := queryStop(nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAsOracle(t, "query after a canceled call", gotHits, wantHits, gotQst, wantQst)
	}
}
