// Package minhash implements the minwise-hashing LSH family for
// Jaccard similarity (Broder et al., reference [4] of the BayesLSH
// paper), the family §4.1 of the paper builds on: for a random
// permutation π of the universe, h(x) = min π(x), and
// Pr[h(a) = h(b)] = Jaccard(a, b).
//
// Instead of materializing permutations, each hash function applies a
// strong 64-bit mixing function keyed by an independent seed to every
// element and takes the minimum — the standard practical approximation
// of a minwise-independent permutation. Because hash i's stream
// depends only on (seed_i, element), signatures are identical however
// the work is scheduled.
//
// # Lazy, concurrent signature store
//
// Store materializes each vector's signature in blocks, only as deep
// as verification demands — the paper's "each point is only hashed as
// many times as is necessary" (§4.3). The store is safe for concurrent
// use by the engine's verification workers: per-vector fills serialize
// on striped locks, readers synchronize through atomic fill counters,
// and EnsureAllCtx shards bulk fills over a worker pool with results
// identical for any worker count.
//
// # Query hashing
//
// A query follows the same rule. Family.NewQuerySig starts a QuerySig
// — the query, a full-capacity buffer and its filled prefix — and
// QuerySig.Ensure hashes only the range not yet filled, with the same
// loop as SignatureN and Store. The engine's query-serving index
// ensures the banding depth before the table probe and lets
// verification deepen it round by round, so a query whose candidates
// all prune early never computes the deep hashes. SignatureN is the
// one-shot form, for vectors whose depth is known up front.
//
// # 1-bit signatures
//
// PackOneBit/PackOneBitAll compress full minhash signatures to their
// lowest bit — b-bit minhash with b = 1 (Li and König, WWW 2010) —
// for the §6 extension implemented in internal/core's
// OneBitJaccardVerifier: 32× smaller signatures compared by
// XOR + popcount.
package minhash
