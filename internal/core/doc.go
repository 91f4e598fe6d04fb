// Package core implements BayesLSH and BayesLSH-Lite, the paper's
// contribution (§4): Bayesian candidate pruning and similarity
// estimation over LSH hash comparisons.
//
// # The round loop (Algorithms 1 and 2)
//
// Given candidate pairs from any generation algorithm, a verifier
// compares the pairs' hashes k at a time. After each round it knows
// the event M(m, n) — m of the first n hashes matched — and uses the
// posterior distribution of the similarity S to decide between three
// outcomes:
//
//   - prune, if Pr[S >= t | M(m, n)] < ε (Equation 3: the pair is very
//     unlikely to be a true positive);
//   - accept with the MAP estimate Ŝ (Equation 4), if
//     Pr[|S − Ŝ| < δ | M(m, n)] >= 1 − γ (Equation 6: the estimate is
//     concentrated enough) — BayesLSH, Algorithm 1;
//   - keep comparing hashes.
//
// BayesLSH-Lite (Algorithm 2) replaces the concentration test with a
// fixed budget of h hashes, after which survivors are verified
// exactly.
//
// One loop (kernel.run) implements both algorithms, and it runs
// round-major: for one query and its candidate ids, round r compares
// every candidate still alive, the survivors are compacted in
// candidate order, and only then does round r+1 run. Most candidates
// die in the first round (§4's premise), so the first round is one
// tight pass over the whole candidate list — for bit signatures one
// XOR and popcount per candidate (sighash.MatchCounts), with the loads
// of different candidates independent of each other — and later rounds
// pass over the few survivors. Accepted pairs are reported in
// candidate order, and every decision, signature depth and counter
// (but the scheduling-dependent CacheHits/InferenceCalls split) is the
// one a pair-by-pair loop would produce. The loop's working set
// (alive ids, their positions and match counts, the accepted pairs)
// comes from a per-verifier sync.Pool, so a warm call allocates only
// its results.
//
// # Instantiations
//
// Three instantiations are provided: Jaccard (package-level minhash
// signatures, conjugate Beta prior, §4.1), Cosine (packed bit
// signatures from random hyperplanes, uniform prior over the collision
// probability r ∈ [0.5, 1], §4.2), and 1-bit minwise Jaccard (the §6
// extension direction, following Li and König's b-bit minhash with
// b = 1). All three share one measure-independent round-loop kernel
// and implement the §4.3 optimizations: a precomputed minMatches(n)
// table replacing the pruning inference, and an (m, n)-indexed cache
// for the concentration inference.
//
// # Rows
//
// Verification reads its candidates as rows (pair.Rows): a corpus
// vector a and its partners. The round loop is one-sided — it is the
// query-serving loop, with a's stored signature as the query — so a
// row deepens a's signature only when a round goes deeper than the row
// has reached, and every per-pair decision is the one a query equal to
// a would make. VerifyRows and VerifyRowsLite verify one batch of rows
// on the calling goroutine; banded LSH calls them from the worker that
// enumerated the rows, so its candidates are never collected. The
// pair-slice forms (VerifyStream, VerifyLiteStream, and their
// collecting VerifyParallelCtx, VerifyLiteParallelCtx) serve
// candidate sets that must be materialized — AllPairs, and Jaccard
// candidates a prior is fitted from (FitJaccardPrior) — by cutting
// each batch of pairs into rows at every change of A.
//
// # Concurrency
//
// Verifiers are safe for concurrent use. The pair-slice forms are
// sharded: candidates flow to a pool of workers in batches, each batch
// accumulates its own results and statistics, results leave batch by
// batch tagged with their slot, and statistics are summed as batches
// complete. Because the per-pair decision is a pure function of the
// pair's hash matches (the concentration cache is idempotent and
// accessed atomically), results collected in slot order are identical
// for any worker count, batch size and row cut — the property that
// makes the engine's sharded pipeline deterministic under a fixed
// seed. Cancellation is polled between hash rounds and every 1,024
// candidates within a round (and within Lite's exact verification).
package core
