// Package sighash implements the random-hyperplane LSH family for
// cosine similarity (Charikar, STOC'02), used by §4.2 of the BayesLSH
// paper: each hash function is a random Gaussian vector r, and
// h(x) = 1 iff dot(r, x) >= 0. For any pair,
//
//	Pr[h(a) = h(b)] = 1 − θ(a, b)/π
//
// where θ is the angle between a and b. RToCosine and CosineToR
// convert between that collision probability and cosine similarity
// (the paper's r2c/c2r functions).
//
// # Signatures and storage
//
// Signatures are packed bit vectors ([]uint64), so comparing hashes is
// XOR + popcount (MatchCount). The package also implements the paper's
// §4.3 storage optimization: Gaussian projection entries are quantized
// to two bytes each, x' = ⌊(x+8)·2¹⁶/16⌋, exploiting that standard
// normal samples essentially never leave (−8, 8). It is the only
// layout; the exact float64 draws of the same streams survive as a
// test oracle, whose signatures differ from the quantized ones in at
// most a few bits of 512.
//
// The quantized rows stay two bytes per coefficient in memory, not
// just on the wire: float32 rows dequantized up front would be exact
// too, but would double the row arena, which is most of a cold cosine
// join's memory. Instead the hashing kernel dequantizes by table — a
// package-level 2¹⁶-entry array (512 KB) holding Dequantize(q) for
// every q, equal to float64(q)/4096 − 8 bit for bit — and adds four
// features per pass over a block's accumulators: it reads the rows of
// features i..i+3, then for each hash function j loads acc[j], adds the
// four products in ascending feature order and stores it once. Every
// sum thus sees the same additions in the same order, with the same
// roundings, as a loop over one feature at a time; the signature bits
// are unchanged, and memory traffic on the accumulators drops
// fourfold. A vector whose length is not a multiple of four finishes
// with a one-feature tail.
//
// No multiply-add in the hashing kernel is fused. The Go spec lets a
// compiler compute x*y + z with one rounding instead of two, and arm64
// code generation does; so every product is written float64(w*g),
// an explicit conversion that rounds it first, and the table is built
// from float64(q−32768)/4096, which has no multiply-add at all. The
// same bits therefore come out of every architecture, and a CI step
// cross-compiles for arm64 and rejects any fused instruction in this
// package's code.
//
// # Lazy, deterministic hashing
//
// BlockFamily groups hash functions in blocks (rounded to 64-bit
// words) and materializes projections by row, not by block: the row
// of feature f in block b — f's coefficient for each hash function of
// b — is generated when the first vector containing f is hashed
// through b. A feature no vector uses, or a deep block only a few
// vectors reach, costs nothing: the paper's "each point is only
// hashed as many times as is necessary", applied to the hash
// functions as well as the points. Store caches per-vector
// signatures over a BlockFamily, extending them block-by-block as
// verification demands deeper prefixes. Every row derives from an
// independent stream keyed by (seed, feature, block), so signatures
// are bit-identical regardless of which goroutine materializes what
// in which order; rows of one block are generated concurrently (under
// a feature-striped lock, so never twice) and published to lock-free
// readers. Store is safe for concurrent use (synchronization via
// shard.Fill).
//
// Whoever touches a row first pays for it (blockBits Gaussian draws):
// a cold batch join pays during its fill, a serving index during its
// build or warm-up, and afterwards an Add or query pays only for
// features — or depths — the process has not hashed before. A family
// is a pure function of its parameters, so it outlives the engine
// that created it: a live index's merged base keeps the outgoing
// base's family instead of starting from an empty one.
//
// # Query hashing
//
// A query follows the same rule as a corpus vector: it is hashed only
// as deep as something reads. BlockFamily.NewQuerySig starts a
// QuerySig — the query, a full-capacity buffer and its filled prefix —
// and QuerySig.Ensure hashes only the blocks not yet filled. The
// engine's query-serving index ensures the banding depth before the
// table probe and lets verification deepen it round by round, so a
// query whose candidates all prune early never pays for the deep
// blocks. BlockFamily.SignatureN is the one-shot form, for vectors
// whose depth is known up front. Both hash against the same streams,
// so a query equal to a corpus vector hashes to exactly that vector's
// stored signature prefix.
package sighash
