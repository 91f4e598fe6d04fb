// Package vector implements the sparse-vector algebra that every
// algorithm in this repository is built on: dot products, norms,
// cosine and Jaccard similarity, Tf-Idf weighting and binarization.
//
// # Representation
//
// A Vector is a pair of parallel slices — strictly increasing feature
// indices and their weights — so similarity computations are sorted
// merges and memory stays proportional to the non-zeros. All-pairs
// similarity search treats a corpus as a Collection of such vectors:
// documents as bags of weighted terms, or graph nodes as weighted
// adjacency rows.
//
// # Operations
//
// Construction (New, FromMap) sorts, merges duplicates and drops
// zeros; Validate enforces the invariants. Similarities (Dot, Cosine,
// Jaccard, BinaryCosine, Overlap) are pure merges, symmetric to the
// last bit — which is what lets the query-serving index reproduce
// batch similarities exactly with the argument order reversed.
// No multiply-add is fused: the Go spec lets a compiler compute
// x*y + z with one rounding instead of two, and arm64 code generation
// does, so Dot, Norm and Stats write each product float64(a*b), an
// explicit conversion that rounds it first. Exact similarities are
// therefore the same bits on every architecture, and a CI step
// cross-compiles for arm64 and rejects any fused instruction in this
// package's code.
// Collection adds corpus-level transforms (TfIdf, Normalize,
// Binarize), statistics matching Table 1 of the BayesLSH paper, and
// the plain-text serialization format shared by the CLI tools
// (WriteTo/Read).
package vector
