// Package lshindex implements candidate generation for all-pairs
// similarity search with locality-sensitive hashing, as described in
// §2 of the BayesLSH paper: every object is assigned l signatures,
// each the concatenation of k hashes, and any two objects sharing at
// least one signature become a candidate pair.
//
// For a per-hash collision probability p (p = t for Jaccard minhash,
// p = 1 − arccos(t)/π for cosine hyperplane hashes at threshold t),
// the number of length-k signatures needed for an expected false
// negative rate ε is
//
//	l = ⌈ log ε / log(1 − p^k) ⌉
//
// (Xiao et al., TODS 2011), which NumTables computes. The multi-probe
// variant (Lv et al., VLDB 2007 — reference [17] of the paper) also
// probes the buckets whose band key differs in one bit, reaching the
// same false negative rate with far fewer tables.
//
// # Sharded banding
//
// The l hash tables are mutually independent, so batch candidate
// generation (the Candidates*Ctx functions) assigns each band to a
// worker: a band buckets every signature, enumerates its within-band
// collisions into its own list, and the lists are deduplicated across
// bands as they complete. Band keys depend only on the signatures and
// the band index, so the candidate set is identical for any worker
// count.
package lshindex
