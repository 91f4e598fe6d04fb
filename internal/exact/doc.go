// Package exact provides brute-force all-pairs similarity search and
// exact pair verification under the three measures the repository
// supports (cosine, Jaccard, binary cosine).
//
// It is the ground truth against which the recall and accuracy of
// every approximate pipeline is measured (Tables 3–5 of the BayesLSH
// paper), the correctness oracle for the unit tests of AllPairs,
// PPJoin and the LSH pipelines, and the verification stage of the
// pipelines that report exact similarities (plain LSH verification
// and the final step of BayesLSH-Lite).
//
// Search examines all O(n²) pairs; Verify computes exact similarities
// for a candidate list and keeps those meeting the threshold. Each has
// one sharded, cancelable form (SearchStream, VerifyStream) that
// divides work into blocks over a worker pool and emits each block's
// results with its slot; collected in slot order (shard.Slots) the
// output is identical to the sequential scan for any worker count.
package exact
