// Package allpairs implements the AllPairs exact all-pairs similarity
// search algorithm of Bayardo, Ma and Srikant (WWW 2007) — reference
// [3] of the BayesLSH paper, its primary exact baseline and the
// candidate generator of the AP+BayesLSH pipelines (§2, §5).
//
// # Pruning devices
//
// The implementation follows the paper's inverted-index design for
// cosine similarity over unit-normalized, non-negatively weighted
// vectors, with three of its pruning devices:
//
//   - Partial indexing: features of a vector are left out of the index
//     while b = Σ x_i·maxw_i stays below the threshold t, where maxw_i
//     is the global maximum weight of feature i. Any pair sharing only
//     unindexed features has dot product < t and can be safely missed.
//     The unindexed prefix x' is stored so that exact similarities can
//     be completed as s = A[y] + dot(x, y').
//   - Size filter (minsize): while probing with x, indexed vectors y
//     too short to reach the threshold are skipped at the head of each
//     postings list (vectors are processed in decreasing maxweight
//     order, so the bound only tightens). Besides Bayardo's
//     |y| ≥ t / maxweight(x), the filter applies the tighter
//     Cauchy–Schwarz bound |y| ≥ (t / maxweight(x))²: for unit-norm,
//     non-negative y, dot(x, y) ≤ maxweight(x)·Σy ≤ maxweight(x)·√|y|.
//     On binary vectors the upper-bound check below can pass at most
//     √(|y|/|x|) = maxweight(x)·√|y|, so every partner the squared
//     filter skips is one the check would have rejected: Jaccard and
//     binary-cosine candidate sets are unchanged, pair for pair. On
//     weighted vectors the filter drops only candidates whose exact
//     similarity is below t. Each list keeps the prefix maximum of its
//     partners' sizes, a monotone key, so the head skip is a binary
//     search.
//   - Upper-bound check: a candidate is exactly verified only if
//     A[y] + min(|x|, |y'|)·maxweight(x)·maxweight(y') ≥ t.
//
// Features are ordered by decreasing document frequency when building
// the unindexed prefix, so the most common features (the longest
// postings lists) are preferentially kept out of the index — the
// ordering heuristic the original paper recommends. The build visits
// every vector's features in that order without sorting any vector:
// one counting transpose of the collection, swept in rank order.
//
// # Measures
//
// The same machinery generates candidates for Jaccard and binary
// cosine: binarize and normalize the vectors, then use the threshold
// mappings t_cos = 2t/(1+t) (Jaccard, by the AM-GM inequality) and
// t_cos = t (binary cosine), as the BayesLSH paper's binary
// experiments do (§5.1).
//
// # Interleaved and sharded scans
//
// The classic scan (Search, Candidates) is inherently sequential: each
// vector probes the index built from the vectors processed before it.
// It is kept as the reference the tests compare against. The engine
// runs the build-then-probe form (CandidatesMeasureCtx and
// SearchMeasureStream): a sequential index-build phase (linear in the
// input) and a probe phase sharded over a worker pool, where each
// vector probes the completed index filtered to entries indexed before
// it — reproducing the interleaved candidate stream exactly, pair for
// pair, at any worker count (see parallel.go for the argument). The
// search streams its results per probe batch, tagged with the batch's
// slot; collected in slot order they are the interleaved scan's result
// stream.
package allpairs
