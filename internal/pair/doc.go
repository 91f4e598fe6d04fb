// Package pair defines the candidate and result types shared by the
// candidate generation algorithms (LSH, AllPairs, PPJoin) and the
// verification algorithms (BayesLSH, BayesLSH-Lite, exact).
//
// # Types
//
// Pair identifies two distinct corpus vectors, normalized so A < B,
// and packs into a single 64-bit key whose order is the pair's (A, B)
// order. Result is a pair that passed verification, carrying its exact
// or estimated similarity. Hit is the one-sided counterpart for the
// query-serving path: a corpus id similar to an (out-of-corpus) query
// vector. Rows groups a candidate stream by its left id — the form
// banded LSH enumerates and verification reads — and RowsOf and
// AppendRows convert between pairs and rows. IDSet deduplicates ids
// and reads them out ascending: a bit per id and a summary bit per
// non-zero word, so adding is branch-free and a read-out walks the
// summary to the words it marks, costing the summary span, the
// non-zero words and the ids, never the set's capacity, and leaving
// the set empty for reuse. Every point probe and the banding row phase
// collect their candidate ids in one.
//
// # Ordering
//
// (A, B) is the canonical candidate order the verification phase
// reads, which is what makes everything downstream of generation
// deterministic. Banded LSH generation emits candidates in that order
// already; SortPairs puts the AllPairs candidate stream into it, and
// SortResults orders results the same way. Query hits need no sort
// here: verification produces them in ascending id order, and the
// query path orders its top-k results itself.
package pair
