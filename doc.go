// Package bayeslsh is a Go implementation of BayesLSH and
// BayesLSH-Lite (Satuluri and Parthasarathy, "Bayesian Locality
// Sensitive Hashing for Fast Similarity Search", PVLDB 5(5), 2012):
// Bayesian candidate pruning and similarity estimation for all-pairs
// similarity search (APSS) with locality-sensitive hashing.
//
// # Problem and pipelines
//
// The package serves two workloads over the same machinery. The batch
// workload is the all-pairs problem: given a collection of sparse
// vectors, a similarity measure (cosine, Jaccard, or binary cosine)
// and a threshold t, find every pair with similarity at least t. The
// online workload is query serving: build an Index over the
// collection once, then ask which stored vectors are similar to a
// given query vector — see the Querying section below. Batch search
// pipelines pair a candidate generation algorithm (AllPairs or LSH
// banding, §2 of the paper) with a verification algorithm (exact,
// classical LSH estimation of §3, BayesLSH, or BayesLSH-Lite of §4),
// mirroring the eight methods compared in §5:
//
//	ds := bayeslsh.NewDataset(dim)
//	for _, doc := range docs {
//		ds.Add(doc) // map[uint32]float64 feature weights
//	}
//	ds = ds.TfIdf().Normalize()
//	eng, err := bayeslsh.NewEngine(ds, bayeslsh.Cosine, bayeslsh.EngineConfig{Seed: 42})
//	out, err := eng.Search(bayeslsh.Options{
//		Algorithm: bayeslsh.LSHBayesLSH,
//		Threshold: 0.7,
//	})
//
// BayesLSH verification provides the paper's probabilistic guarantees:
// each candidate pair with posterior probability above ε of meeting
// the threshold reaches the output, and each reported similarity
// estimate is within δ of the true similarity with probability at
// least 1 − γ. BayesLSH-Lite prunes the same way but reports exact
// similarities.
//
// # Querying (build once, query many)
//
// An Index splits the batch monolith into an ingest phase and a
// reusable query phase: it builds signatures, LSH band tables and/or
// the AllPairs inverted index once, then serves concurrent
// Query(vec, opts), TopK(vec, k) and QueryBatch calls, each running
// candidate generation against the prebuilt structure followed by
// per-query BayesLSH verification:
//
//	ix, err := bayeslsh.NewIndex(ds, bayeslsh.Cosine,
//		bayeslsh.EngineConfig{Seed: 42},
//		bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.7})
//	matches, err := ix.Query(bayeslsh.NewVec(features), bayeslsh.QueryOptions{})
//
// Queries are consistent with batch search for every pipeline: a
// query equal to dataset vector i returns exactly the pairs involving
// i that Search finds at the same threshold and Seed (docs/QUERYING.md
// has the guarantee and the cost model).
//
// # Persistence (build offline, serve online)
//
// A built Index snapshots to a versioned, checksummed file and loads
// back without rebuilding — the offline-build/online-serve split of
// production systems, where one builder writes a snapshot and a fleet
// of serving processes load it at startup:
//
//	err := ix.SaveFile("index.snap")           // offline (atomic replace)
//	ix, err := bayeslsh.LoadFile("index.snap") // online, milliseconds
//
// SaveFile writes the heap stream (version 1); SaveFileV3 writes the
// page-aligned version-3 file, which LoadFile serves in place from a
// read-only mapping instead of decoding it. A loaded index serves
// Query, TopK and QueryBatch results bit-identical to the index that
// wrote the snapshot, at any Parallelism and BatchSize (set per process
// with Index.SetRuntime). Four constructors read snapshots: LoadFile
// (a base-index file of either version), OpenLiveFile (any file, as a
// LiveIndex), and ReadIndex and ReadLiveIndex, the io.Reader forms of
// the two WriteTo streams. docs/PERSISTENCE.md documents the formats
// and versioning policy.
//
// # Live serving (ingest while querying)
//
// A LiveIndex serves the same query surface while Add and Delete
// mutate the corpus — no rebuild on the caller's path. It pairs the
// immutable base Index with a small mutable delta segment (new
// vectors hash once, at ingest, against the same seeded families), a
// monotone tombstone set masking deletions, and a background merge
// that folds both into a fresh base and publishes it by atomic
// generation swap:
//
//	li, err := bayeslsh.NewLiveIndex(ds, m, cfg, opts, bayeslsh.LiveConfig{})
//	id, err := li.Add(vec)   // visible to queries from now on
//	ok := li.Delete(id)      // masked from now on
//
// Determinism extends to mutation: after any interleaving of adds,
// deletes and merges, results are bit-identical to a cold Index built
// over the equivalent corpus. Live state snapshots as a version-2
// stream (LiveIndex.WriteTo or SaveFile; ReadLiveIndex or
// OpenLiveFile); see
// docs/LIVE.md for the segment model and merge policy.
//
// # Cancellation and streaming
//
// Every search and query has a context-aware form — SearchContext,
// QueryContext, TopKContext, QueryBatchContext — whose cancellation
// is plumbed through all pipeline layers: a canceled context aborts
// signature fills, candidate generation, BayesLSH rounds and exact
// verification promptly, drains every goroutine, and surfaces an
// error wrapping context.Canceled or context.DeadlineExceeded. The
// blocking forms are unchanged wrappers over context.Background().
// Engine.Stream additionally delivers batch-search results as an
// iter.Seq2[Result, error] while verification runs, bounding resident
// result memory for huge joins:
//
//	for r, err := range eng.Stream(ctx, opts) {
//		if err != nil { break } // canceled or failed
//		use(r)
//	}
//
// docs/CONTEXTS.md documents the semantics, the per-layer check
// granularity and the streaming memory model.
//
// # Parallelism and determinism
//
// An Engine runs a sharded, batched search pipeline: signature
// hashing, candidate generation (LSH bands, the AllPairs probe phase)
// and verification all divide their work over a pool of
// EngineConfig.Parallelism goroutines, with candidate pairs flowing
// to verification workers in EngineConfig.BatchSize units. Every
// randomized component derives its stream from the configured Seed
// per work item (per hash block, per band, per pair) rather than per
// worker, so for a fixed Seed the result set is bit-for-bit identical
// at any parallelism level — including Parallelism 1, where the same
// pipeline runs every stage on the calling goroutine. See
// docs/TUNING.md for how to set the knobs.
//
// # Layout
//
// The exported API lives in this package: Dataset, Engine, Options
// and Result for batch search; Index, Vec, QueryOptions and Match for
// query serving; LiveIndex and LiveConfig for ingest-while-serving
// (internal/live holds its memtable, tombstones and merge policy).
// The algorithms live in internal packages:
// internal/core holds the Bayesian verification kernel (two-sided and
// one-sided), internal/allpairs, internal/lshindex and
// internal/ppjoin generate candidates (the first two also keep
// query-servable structures), internal/sighash and internal/minhash
// implement the LSH families, internal/snapshot holds the binary
// snapshot primitives behind Index persistence, and internal/harness
// regenerates the paper's tables and figures. The README's
// architecture map walks through all of them.
package bayeslsh
