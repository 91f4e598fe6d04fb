package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"bayeslsh/internal/core"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
)

// ErrBadK reports TopK called with k <= 0.
var ErrBadK = errors.New("bayeslsh: TopK needs k > 0")

// ErrBadThreshold reports a per-query threshold override outside
// [built threshold, 1] — the index generates candidates at the built
// threshold, so it cannot serve a lower one.
var ErrBadThreshold = errors.New("bayeslsh: query threshold outside [built threshold, 1]")

// Vec is a single query vector, the input of Index.Query and
// Index.TopK. Build one with NewVec or NewSetVec, or take one out of a
// dataset with Dataset.Vector. A Vec is immutable and safe to share.
type Vec struct {
	v vector.Vector
}

// NewVec builds a query vector from a feature→weight map, the same
// input format as Dataset.Add. Zero weights are dropped.
func NewVec(features map[uint32]float64) Vec {
	return Vec{v: vector.FromMap(features)}
}

// NewSetVec builds a binary query vector from a set of feature
// indices, the same input format as Dataset.AddSet.
func NewSetVec(indices []uint32) Vec {
	m := make(map[uint32]float64, len(indices))
	for _, i := range indices {
		m[i] = 1
	}
	return NewVec(m)
}

// Len returns the number of non-zero features.
func (q Vec) Len() int { return q.v.Len() }

// Features returns the vector's non-zero features and their weights,
// in strictly ascending feature order — the inverse of NewVec. The
// returned slices are copies; mutating them does not affect the Vec.
// NewVec over the returned pairs reconstructs the Vec bit-identically,
// which is what lets a query cross a process boundary (the HTTP
// client renders Features in the wire grammar) without changing any
// result.
func (q Vec) Features() ([]uint32, []float64) {
	ind := make([]uint32, q.v.Len())
	val := make([]float64, q.v.Len())
	copy(ind, q.v.Ind)
	copy(val, q.v.Val)
	return ind, val
}

// Vector returns vector i as a query vector. Querying an index with
// its own dataset's vector i returns i itself (similarity 1) plus the
// partners the batch search pairs i with.
func (d *Dataset) Vector(i int) Vec { return Vec{v: d.c.Vecs[i]} }

// Match is one query result: the dataset id of a similar corpus
// vector and the reported similarity (exact or estimated, depending
// on the index's algorithm — the same semantics as the batch
// pipeline's Result.Sim).
type Match struct {
	ID  int
	Sim float64
}

// QueryOptions configures one query against a built index.
type QueryOptions struct {
	// Threshold overrides the index's built threshold for this query.
	// It must be at least the built threshold: candidate generation
	// was provisioned at build time, so lower thresholds would
	// silently lose recall. Raising it filters the result stream; for
	// the estimate-reporting pipelines the filter applies to the
	// estimates (inference still runs at the built threshold). 0
	// selects the built threshold.
	Threshold float64
}

// querySigs carries one query's preprocessed forms: the raw vector
// (exact similarity), the measure-transformed vector (AllPairs
// probing), and whichever hash signatures the index compares.
type querySigs struct {
	raw  vector.Vector
	work vector.Vector
	bits []uint64
	min  []uint32
}

// prepare transforms and hashes the query the way the corpus was
// transformed and hashed at build: for Cosine the query is normalized
// (idempotent if already unit-norm), for the binary measures it is
// binarized and normalized; signatures derive from the engine's
// seeded families, so a query equal to corpus vector i hashes to
// exactly i's stored signature prefix. Only the depth the call reads
// is hashed: banding depth always, verification depth unless the
// caller (TopK) verifies with exact similarities only.
func (ix *Index) prepare(q Vec, topK bool) querySigs {
	e := ix.engine()
	qs := querySigs{raw: q.v}
	if e.measure == Cosine {
		qs.work = q.v.Clone().Normalize()
	} else {
		qs.work = q.v.Binarize().Normalize()
	}
	minDepth, bitsDepth := ix.bandMin, ix.bandBits
	if !topK {
		minDepth = max(minDepth, ix.verifyMin)
		bitsDepth = max(bitsDepth, ix.verifyBits)
	}
	if minDepth > 0 {
		qs.min = e.minSigStore().Family().SignatureN(qs.work, minDepth)
	}
	if ix.packOneBit && !topK {
		qs.bits = minhash.PackOneBit(qs.min)
	} else if bitsDepth > 0 {
		fam := e.bitSigStore().Family()
		// Features outside the corpus dimensionality contribute nothing
		// to any dot product with a corpus vector, so the hyperplane
		// family hashes the query's projection onto the corpus feature
		// space; exact verification still uses the full vector.
		qs.bits = fam.SignatureN(restrictToDim(qs.work, fam.Dim()), bitsDepth)
	}
	return qs
}

// restrictToDim returns v limited to features below dim, sharing the
// input's backing arrays. Vectors carry strictly increasing indices,
// so the restriction is a prefix.
func restrictToDim(v vector.Vector, dim int) vector.Vector {
	if v.Len() == 0 || int(v.Ind[v.Len()-1]) < dim {
		return v
	}
	k := sort.Search(v.Len(), func(i int) bool { return int(v.Ind[i]) >= dim })
	return vector.Vector{Ind: v.Ind[:k], Val: v.Val[:k]}
}

// candidates generates the query's candidate corpus ids from the
// prebuilt structure, in ascending id order.
func (ix *Index) candidates(qs querySigs) []int32 {
	switch {
	case ix.ap != nil:
		return ix.ap.Probe(qs.work)
	case ix.mins != nil:
		return ix.mins.Probe(qs.min)
	case ix.bits != nil:
		return ix.bits.Probe(qs.bits)
	default: // BruteForce: every non-empty corpus vector
		vecs := ix.engine().ds.c.Vecs
		ids := make([]int32, 0, len(vecs))
		for id, v := range vecs {
			if v.Len() > 0 {
				ids = append(ids, int32(id))
			}
		}
		return ids
	}
}

// exactSim computes the exact similarity of the raw query to corpus
// vector id under the index's measure.
func (ix *Index) exactSim(qraw vector.Vector, id int32) float64 {
	e := ix.engine()
	return toExactMeasure(e.measure).Sim(qraw, e.ds.c.Vecs[id])
}

// Query returns the corpus vectors similar to q at the index's
// threshold (or opts.Threshold, if higher), in ascending id order. It
// runs candidate generation against the prebuilt index followed by
// the built algorithm's verification — exact, fixed-hash estimation,
// BayesLSH, or BayesLSH-Lite. Safe for any number of concurrent
// callers; results are deterministic for the engine's Seed. Query is
// QueryContext with context.Background() — it cannot be canceled.
func (ix *Index) Query(q Vec, opts QueryOptions) ([]Match, error) {
	return ix.QueryContext(context.Background(), q, opts)
}

// QueryContext is Query with cooperative cancellation: verification
// polls ctx between candidates (and, for the Bayes algorithms,
// between hash rounds), so even a query with a pathologically large
// candidate set aborts promptly. A canceled query returns an error
// wrapping context.Canceled or context.DeadlineExceeded and no
// matches. For a ctx that is never canceled the result is
// bit-identical to Query's.
func (ix *Index) QueryContext(ctx context.Context, q Vec, opts QueryOptions) ([]Match, error) {
	t, err := ix.queryThreshold(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxWrap(err)
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return ix.queryStop(q, t, stop)
}

// queryStop runs one threshold query at the resolved threshold t.
// stop is a watcher owned by the caller (QueryContext per query,
// QueryBatchContext shared across a batch).
func (ix *Index) queryStop(q Vec, t float64, stop *shard.Stopper) ([]Match, error) {
	if q.Len() == 0 {
		return nil, nil
	}
	// First touch of a disk-backed index verifies the sections this
	// query shape reads (checksum + deep structural walk, once per
	// section for the life of the mapping).
	if err := ix.ready(false); err != nil {
		return nil, err
	}
	qs := ix.prepare(q, false)
	hits, err := ix.verify(qs, ix.candidates(qs), stop)
	if err != nil {
		return nil, ctxWrap(err)
	}
	if t > ix.opts.Threshold {
		kept := hits[:0]
		for _, h := range hits {
			if h.Sim >= t {
				kept = append(kept, h)
			}
		}
		hits = kept
	}
	return toMatches(hits), nil
}

// queryThreshold resolves and validates the per-query threshold.
func (ix *Index) queryThreshold(opts QueryOptions) (float64, error) {
	t := opts.Threshold
	if t == 0 {
		return ix.opts.Threshold, nil
	}
	if t < ix.opts.Threshold || t > 1 {
		return 0, fmt.Errorf("%w: %v outside [%v, 1]", ErrBadThreshold, t, ix.opts.Threshold)
	}
	return t, nil
}

// segView is the verification surface of one index segment: the Bayes
// verifier over that segment's signatures (nil for the pipelines that
// verify without one), the exact similarity of the current query to
// segment id, and the fixed-hash estimate (LSHApprox only). The base
// corpus and a LiveIndex's delta segment both present one, so the two
// run the built algorithm's verification through the same switch and
// per-candidate decisions cannot drift between segments.
type segView struct {
	vq  core.QueryVerifier
	sim func(id int32) float64
	est func(id int32) float64
}

// segment wraps the index's own corpus in a segView for the prepared
// query qs.
func (ix *Index) segment(qs querySigs) segView {
	return segView{
		vq:  ix.vq,
		sim: func(id int32) float64 { return ix.exactSim(qs.raw, id) },
		est: func(id int32) float64 { return ix.approxEstimate(qs, id, ix.approxN) },
	}
}

// verify runs the built algorithm's verification over the candidate
// ids at the built threshold, returning hits in candidate (ascending
// id) order. stop is polled between candidates; a stopped verification
// returns the context's error and no hits.
func (ix *Index) verify(qs querySigs, ids []int32, stop *shard.Stopper) ([]pair.Hit, error) {
	return ix.verifySeg(ix.segment(qs), qs, ids, stop)
}

// verifySeg is verify over an explicit segment view.
func (ix *Index) verifySeg(sv segView, qs querySigs, ids []int32, stop *shard.Stopper) ([]pair.Hit, error) {
	o := ix.opts
	switch o.Algorithm {
	case BruteForce, AllPairs, LSH:
		var hits []pair.Hit
		for _, id := range ids {
			if stop.Stopped() {
				return nil, stop.Err()
			}
			if s := sv.sim(id); s >= o.Threshold {
				hits = append(hits, pair.Hit{ID: id, Sim: s})
			}
		}
		return hits, nil

	case LSHApprox:
		var hits []pair.Hit
		for _, id := range ids {
			if stop.Stopped() {
				return nil, stop.Err()
			}
			s := sv.est(id)
			if s >= o.Threshold {
				hits = append(hits, pair.Hit{ID: id, Sim: s})
			}
		}
		return hits, nil

	case AllPairsBayesLSH, LSHBayesLSH:
		hits, _, err := sv.vq.VerifyQueryStop(core.QuerySig{Bits: qs.bits, Min: qs.min}, ids, stop)
		if err != nil {
			return nil, err
		}
		if o.Algorithm == AllPairsBayesLSH {
			// The AllPairs probe and the batch scan evaluate the cheap
			// candidate bound from different sides, so their candidate
			// sets can differ on (and only on) sub-threshold pairs.
			// Exact-verifying the accepted hits removes those from both
			// paths — the query-side twin of Engine.dropSubThreshold —
			// so query results equal batch results strictly. Survivors
			// keep their estimated similarity.
			kept := hits[:0]
			for _, h := range hits {
				if stop.Stopped() {
					return nil, stop.Err()
				}
				if sv.sim(h.ID) >= o.Threshold {
					kept = append(kept, h)
				}
			}
			hits = kept
		}
		return hits, nil

	default: // AllPairsBayesLSHLite, LSHBayesLSHLite
		hits, _, err := sv.vq.VerifyQueryLiteStop(core.QuerySig{Bits: qs.bits, Min: qs.min}, ids, o.LiteHashes,
			sv.sim, stop)
		if err != nil {
			return nil, err
		}
		return hits, nil
	}
}

// approxEstimate is the classical fixed-n LSH estimator of §3 for one
// query-candidate pair, sharing the batch approxVerify formulas.
func (ix *Index) approxEstimate(qs querySigs, id int32, n int) float64 {
	e := ix.engine()
	if e.measure == Jaccard {
		return approxJaccardEstimate(minhash.Matches(qs.min, e.minSigStore().Sigs()[id], 0, n), n)
	}
	return approxCosineEstimate(sighash.MatchCount(qs.bits, e.bitSigStore().Sigs()[id], 0, n), n)
}

// TopK returns the k corpus vectors most similar to q, among those
// meeting the index's built threshold, ordered by decreasing exact
// similarity (ties by ascending id). Fewer than k matches are
// returned when fewer qualify — k larger than the corpus is simply a
// "return everything qualifying" query, never an error. Candidate
// generation runs at the built threshold, so TopK cannot see below
// it; sub-threshold candidates that generation happens to surface are
// clamped away rather than reported, which makes the result
// well-defined — a function of the corpus, the threshold and the
// banding plan — instead of leaking whichever extra collisions the
// built candidate source produced (build with Algorithm BruteForce
// and a low threshold for a corpus-wide k-nearest scan). Similarities
// are always exact; the build algorithm only determines the candidate
// source.
func (ix *Index) TopK(q Vec, k int) ([]Match, error) {
	return ix.TopKContext(context.Background(), q, k)
}

// TopKContext is TopK with cooperative cancellation, under the
// QueryContext contract.
func (ix *Index) TopKContext(ctx context.Context, q Vec, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxWrap(err)
	}
	if q.Len() == 0 {
		return nil, nil
	}
	if err := ix.ready(true); err != nil {
		return nil, err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	qs := ix.prepare(q, true)
	ids := ix.candidates(qs)
	hits := make([]pair.Hit, 0, len(ids))
	for _, id := range ids {
		if stop.Stopped() {
			return nil, ctxWrap(stop.Err())
		}
		if s := ix.exactSim(qs.raw, id); s >= ix.opts.Threshold {
			hits = append(hits, pair.Hit{ID: id, Sim: s})
		}
	}
	pair.SortHitsBySim(hits)
	if len(hits) > k {
		hits = hits[:k]
	}
	return toMatches(hits), nil
}

// QueryBatch answers many queries, sharding them over the engine's
// worker pool (EngineConfig.Parallelism). Result i corresponds to
// queries[i]; each is identical to a standalone Query call, so the
// output is independent of worker count and batching. QueryBatch is
// QueryBatchContext with context.Background() — it cannot be
// canceled.
func (ix *Index) QueryBatch(queries []Vec, opts QueryOptions) ([][]Match, error) {
	return ix.QueryBatchContext(context.Background(), queries, opts)
}

// QueryBatchContext is QueryBatch with cooperative cancellation: one
// watcher is shared by the whole batch, queries stop being dispatched
// once ctx is done, and the query in flight on each worker aborts
// between candidates. A canceled batch returns an error wrapping
// context.Canceled or context.DeadlineExceeded and no results — a
// batch is one request, so partial delivery would be
// indistinguishable from empty result sets.
func (ix *Index) QueryBatchContext(ctx context.Context, queries []Vec, opts QueryOptions) ([][]Match, error) {
	t, err := ix.queryThreshold(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxWrap(err)
	}
	// Surface a disk-backed index's first-touch verification failure as
	// the batch's error; inside the fan-out it would be swallowed.
	if err := ix.ready(false); err != nil {
		return nil, err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	out := make([][]Match, len(queries))
	workers := ix.engine().workers()
	err = shard.RunCtx(ctx, len(queries), workers, shard.Chunk(len(queries), workers, 1), func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if stop.Stopped() {
				return
			}
			// Per-query errors cannot occur here: the threshold was
			// validated above, readiness was checked above, and
			// cancellation surfaces via RunCtx.
			out[i], _ = ix.queryStop(queries[i], t, stop)
		}
	})
	if err != nil {
		return nil, ctxWrap(err)
	}
	return out, nil
}

func toMatches(hits []pair.Hit) []Match {
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{ID: int(h.ID), Sim: h.Sim}
	}
	return out
}
