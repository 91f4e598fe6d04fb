// Package pair defines the candidate and result types shared by the
// candidate generation algorithms (LSH, AllPairs, PPJoin) and the
// verification algorithms (BayesLSH, BayesLSH-Lite, exact).
//
// # Types
//
// Pair identifies two distinct corpus vectors, normalized so A < B,
// and packs into a single 64-bit key for deduplication; Set is the
// deduplicating collector candidate generation merges into. Result is
// a pair that passed verification, carrying its exact or estimated
// similarity. Hit is the one-sided counterpart for the query-serving
// path: a corpus id similar to an (out-of-corpus) query vector.
//
// # Ordering
//
// SortPairs and SortResults order by (A, B) — the canonical order the
// engine sorts candidates into between the generation and
// verification phases, which is what makes everything downstream of
// generation deterministic. Query hits need no sort here: verification
// produces them in ascending id order, and the query path orders its
// top-k results itself.
package pair
