package core

import (
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// One-sided verification: the query-serving path compares one
// out-of-corpus query signature against corpus signatures, and batch
// verification runs the same loop once per candidate row, with the
// row's left vector as the query (kernel.rowQuery), through the one
// round loop kernel.run. So for a query
// whose signature equals corpus vector i's, every per-candidate
// decision (prune round, accept round, estimate) is bit-identical to
// the batch verification of the corresponding pair.

// QuerySig carries a query's signature in whichever representation
// the verifier compares: packed bits (cosine and 1-bit Jaccard) or
// minhashes (Jaccard). Exactly one of Bits and Min is consulted per
// verifier.
//
// Ensure is the query-side twin of Params.Ensure: when non-nil, the
// verifier calls Ensure(n) before a round reads hashes [n−K, n) deeper
// than any earlier round of the same verification call did, so a
// signature that is extended lazily (sighash.QuerySig,
// minhash.QuerySig) is hashed only as deep as the deepest round any
// candidate reaches. With Ensure nil the signature must already cover
// MaxHashes. A query verifies on one goroutine, so Ensure needs no
// synchronization of its own.
type QuerySig struct {
	Bits   []uint64
	Min    []uint32
	Ensure func(n int)

	depth int // deepest n Ensure was called with by this verification
}

// QuerySimFunc computes the exact similarity of the query to corpus
// vector id; it is supplied to Lite query verification by the caller.
type QuerySimFunc func(id int32) float64

// QueryVerifier extends Verifier with the one-sided (query versus
// corpus) verification entry points. All verifiers in this package
// implement it; query calls are safe concurrently with each other and
// with batch verification calls.
type QueryVerifier interface {
	Verifier
	// Params returns the validated parameters in effect.
	Params() Params
	// VerifyQuery is VerifyQueryStop with no stopper: it cannot be
	// canceled.
	VerifyQuery(q QuerySig, ids []int32) ([]pair.Hit, Stats)
	// VerifyQueryStop runs the BayesLSH round loop (Algorithm 1) for
	// the query signature against each candidate corpus id, returning
	// accepted hits in candidate order. stop (nil for "not
	// cancelable") is polled between rounds and every 1,024 candidates
	// within a round; once it trips, partial output is discarded and
	// stop.Err() is returned.
	VerifyQueryStop(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats, error)
	// VerifyQueryLiteStop runs the pruning rounds of BayesLSH-Lite
	// (Algorithm 2) within the first h hashes, then verifies survivors
	// exactly with sim, keeping hits with similarity >= t, under the
	// VerifyQueryStop cancellation contract.
	VerifyQueryLiteStop(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats, error)
}

// stopResultHits discards partial query output once the stopper has
// tripped, so a canceled query never returns a half-verified hit list.
func stopResultHits(hits []pair.Hit, st Stats, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	if stop.Stopped() {
		return nil, Stats{}, stop.Err()
	}
	return hits, st, nil
}

// verifyQuery runs the one-sided BayesLSH loop over all candidate ids.
// stop follows the kernel.run contract; on cancellation the partial
// output must be discarded by the caller (VerifyQueryStop does).
func (kr *kernel) verifyQuery(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats) {
	st := Stats{Candidates: len(ids), SurvivorsByRound: make([]int, len(kr.ns))}
	sc := kr.getScratch()
	defer kr.scratch.Put(sc)
	if _, ok := kr.run(&q, ids, len(kr.ns), false, sc, stop, &st); !ok {
		return nil, st
	}
	out := make([]pair.Hit, len(sc.acc))
	for i, ac := range sc.acc {
		out[i] = pair.Hit{ID: ids[ac.pos], Sim: ac.est}
	}
	st.Accepted = len(out)
	return out, st
}

// verifyQueryLite runs the one-sided pruning rounds, then exact
// verification of survivors. stop follows the verifyQuery contract.
func (kr *kernel) verifyQueryLite(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats) {
	nRounds := liteRounds(h, kr.params.K, len(kr.ns))
	st := Stats{Candidates: len(ids), SurvivorsByRound: make([]int, nRounds)}
	sc := kr.getScratch()
	defer kr.scratch.Put(sc)
	survivors, ok := kr.run(&q, ids, nRounds, true, sc, stop, &st)
	if !ok {
		return nil, st
	}
	var out []pair.Hit
	for i, id := range survivors {
		if i%partnerChunk == 0 && stop.Stopped() {
			return nil, st
		}
		st.ExactVerified++
		if s := sim(id); s >= kr.params.Threshold {
			out = append(out, pair.Hit{ID: id, Sim: s})
		}
	}
	st.Accepted = len(out)
	return out, st
}

// VerifyQuery runs BayesLSH for the query signature against the
// candidate corpus ids; it cannot be canceled.
func (kr *kernel) VerifyQuery(q QuerySig, ids []int32) ([]pair.Hit, Stats) {
	return kr.verifyQuery(q, ids, nil)
}

// VerifyQueryStop is VerifyQuery with cooperative cancellation. The
// query signature (q.Min for Jaccard, q.Bits otherwise) must cover
// MaxHashes hashes or extend itself through q.Ensure.
func (kr *kernel) VerifyQueryStop(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := kr.verifyQuery(q, ids, stop)
	return stopResultHits(hits, st, stop)
}

// VerifyQueryLiteStop runs BayesLSH-Lite pruning for the query
// signature, then verifies survivors exactly with sim.
func (kr *kernel) VerifyQueryLiteStop(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := kr.verifyQueryLite(q, ids, h, sim, stop)
	return stopResultHits(hits, st, stop)
}
