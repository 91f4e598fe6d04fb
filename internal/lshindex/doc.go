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
// A batch banded join runs in two sharded phases. Bands → runs
// (BandBitsCtx, BandMinhashCtx): the l hash tables are mutually
// independent, so each band is built on its own worker, bucketing
// every signature and laying the buckets out as sorted runs of ids.
// Rows (StreamRows): contiguous batches of rows run on the worker
// pool, row a collecting the ids after it in its runs across all
// bands, deduplicated by a per-worker id-set and read out in ascending
// order, and each batch's rows go straight to the caller's batch body
// on the same worker — the engine verifies them there, so a join's
// candidates are never collected. Batch outputs leave tagged with
// their slot, in row order. The Candidates*Ctx functions are the same
// two phases with a body that collects the pairs, deduplicated and in
// ascending (A, B) order, the canonical order verification reads. Band
// keys depend only on the signatures and the band index, so the
// candidates — set and order — are identical for any worker count.
//
// # Point probes
//
// BitsTables and MinhashTables and BitsDelta and MinhashDelta (the
// live index's memtable) answer one query signature with the ids
// sharing a bucket with it, ascending and deduplicated. The tables
// have one form, each band a sorted bucket run: built in memory by the
// band phase above, decoded from a v1/v2 stream into the same runs, or
// laid over a mapped v3 section (BitsView and MinhashView are the same
// types). Every probe draws its id-set from one package pool, decodes
// each probed bucket straight into the set, and reads the set out into
// its one exact-size result — no map and no comparison sort per
// candidate — so a probe costs about its buckets' length and allocates
// once.
package lshindex
