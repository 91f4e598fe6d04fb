package bayeslsh

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"bayeslsh/internal/core"
	"bayeslsh/internal/live"
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
// probing), and the signature of the engine's kind, hashed only as
// deep as something has read it. It belongs to one query call, on one
// goroutine, so the lazily-extended signatures take no locks.
type querySigs struct {
	raw  vector.Vector
	work vector.Vector
	bits sighash.QuerySig // the bit kind's signature; zero otherwise
	min  minhash.QuerySig // the minhash kind's signature; zero otherwise
	one  []uint64         // 1-bit packed minhashes, packed on first verification
}

// prepare transforms and hashes the query the way the corpus was at
// build, so a query equal to corpus vector i hashes to exactly i's
// stored signature prefix. It hashes the banding depth only — all a
// probe, and so all a TopK, reads; verification deepens the signature
// as its rounds or estimates read it.
func (ix *Index) prepare(q Vec) *querySigs {
	e := ix.engine()
	qs := &querySigs{raw: q.v}
	if e.binary {
		qs.work = q.v.Binarize().Normalize()
	} else {
		qs.work = q.v.Clone().Normalize()
	}
	if max(ix.band, ix.verify) > 0 {
		e.sigs.hashQuery(qs, ix.band)
	}
	return qs
}

// candidates generates the query's candidate corpus ids from the
// prebuilt structure of the pipeline's generator, in ascending id
// order.
func (ix *Index) candidates(qs *querySigs) []int32 {
	switch ix.pipe.gen {
	case genAllPairs:
		return ix.ap.Probe(qs.work)
	case genLSH:
		return ix.engine().sigs.probe(ix.tables, qs)
	}
	// BruteForce: every non-empty corpus vector.
	vecs := ix.engine().ds.c.Vecs
	ids := make([]int32, 0, len(vecs))
	for id, v := range vecs {
		if v.Len() > 0 {
			ids = append(ids, int32(id))
		}
	}
	return ids
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
// polls ctx between candidates (for the Bayes algorithms, between hash
// rounds and every 1,024 candidates within a round), so even a query
// with a pathologically large candidate set aborts promptly. A canceled query returns an error
// wrapping context.Canceled or context.DeadlineExceeded and no
// matches. For a ctx that is never canceled the result is
// bit-identical to Query's.
func (ix *Index) QueryContext(ctx context.Context, q Vec, opts QueryOptions) ([]Match, error) {
	return cut{ix: ix}.query(ctx, q, opts)
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
	return cut{ix: ix}.topK(ctx, q, k)
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
// once ctx is done, and the query in flight on each worker aborts as
// its verification next polls (see QueryContext). A canceled batch returns an error wrapping
// context.Canceled or context.DeadlineExceeded and no results — a
// batch is one request, so partial delivery would be
// indistinguishable from empty result sets.
func (ix *Index) QueryBatchContext(ctx context.Context, queries []Vec, opts QueryOptions) ([][]Match, error) {
	return cut{ix: ix}.queryBatch(ctx, queries, opts)
}

// cut is the consistent corpus one query call runs over: a base Index
// plus, for a LiveIndex, the generation the call pinned (the delta
// memtable, the base-row → external-id map and the deletion mask). A
// plain Index is the cut with no generation. Every query entry point
// of both types runs the methods below.
type cut struct {
	ix  *Index
	li  *LiveIndex // gen's owner (tombstones, delta verifier cache); nil without gen
	gen *liveGen
}

// segment is one verifiable part of a cut: the raw vectors exact
// similarity reads, the signature rows the §3 estimator reads, the
// Bayes verifier over the segment (nil for the other verifiers), and
// the map from segment id to external id.
type segment struct {
	raw  []vector.Vector
	sigs live.View
	vq   core.QueryVerifier

	ext   []int // segment id -> external id; nil maps id to start+id
	start int
}

// extID maps segment id id to its external id.
func (s *segment) extID(id int32) int {
	if s.ext != nil {
		return s.ext[id]
	}
	return s.start + int(id)
}

// segments returns the number of segments in the cut: the base, plus
// a live generation's delta.
func (c cut) segments() int {
	if c.gen == nil {
		return 1
	}
	return 2
}

// segment returns segment i of the cut (0 the base, 1 a live delta)
// and the query's candidates in it, ascending, masked ids dropped.
// verifier asks for the delta's Bayes verifier; TopK skips it.
func (c cut) segment(i int, qs *querySigs, verifier bool) (segment, []int32, error) {
	if i == 0 {
		ix := c.ix
		e := ix.engine()
		seg := segment{raw: e.ds.c.Vecs, vq: ix.vq}
		if ix.pipe.ver == verApprox {
			seg.sigs = e.sigs.rows()
		}
		if c.gen != nil {
			seg.ext = c.gen.baseIDs
		}
		return seg, c.mask(&seg, ix.candidates(qs)), nil
	}
	gen := c.gen
	seg := segment{start: gen.start}
	ids := gen.mem.Candidates(qs.bits.Bits(), qs.min.Hashes(), qs.work, gen.memN)
	if len(ids) == 0 {
		return seg, ids, nil
	}
	view := gen.mem.View(gen.memN)
	seg.raw, seg.sigs = view.Raw, view
	if ids = c.mask(&seg, ids); len(ids) == 0 {
		return seg, ids, nil
	}
	if verifier {
		var err error
		if seg.vq, err = c.li.deltaVerifier(gen); err != nil {
			return segment{}, nil, err
		}
	}
	return seg, ids, nil
}

// mask drops, in place, the candidates deleted in the cut and, as
// the batch join does (Engine.nonEmpty), those with no features.
func (c cut) mask(seg *segment, ids []int32) []int32 {
	kept := ids[:0]
	for _, id := range ids {
		if seg.raw[id].Len() > 0 && (c.gen == nil || !c.gen.deleted(c.li.tombs, seg.extID(id))) {
			kept = append(kept, id)
		}
	}
	return kept
}

// threshold is the prologue of the threshold entry points: it resolves
// and validates the per-query threshold, then refuses a done ctx.
func (c cut) threshold(ctx context.Context, opts QueryOptions) (float64, error) {
	built, t := c.ix.opts.Threshold, opts.Threshold
	if t == 0 {
		t = built
	} else if t < built || t > 1 {
		return 0, fmt.Errorf("%w: %v outside [%v, 1]", ErrBadThreshold, t, built)
	}
	if err := ctx.Err(); err != nil {
		return 0, ctxWrap(err)
	}
	return t, nil
}

// query is the threshold query behind both QueryContext methods.
func (c cut) query(ctx context.Context, q Vec, opts QueryOptions) ([]Match, error) {
	t, err := c.threshold(ctx, opts)
	if err != nil {
		return nil, err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	return c.run(q, t, false, stop)
}

// run is the one query loop: over every segment of the cut it probes,
// masks, verifies and maps to external ids, appending hits in
// ascending external id. A threshold query verifies with the built
// algorithm and filters at t; a TopK query (t the built threshold)
// verifies exactly and leaves ordering to its caller. stop is owned
// by the caller.
func (c cut) run(q Vec, t float64, topK bool, stop *shard.Stopper) ([]Match, error) {
	if q.Len() == 0 {
		return nil, nil
	}
	// First touch of a disk-backed index verifies the sections this
	// query shape reads (checksum + deep structural walk, once per
	// section for the life of the mapping).
	if err := c.ix.ready(topK); err != nil {
		return nil, err
	}
	if uint64(q.v.Ind[0]) >= uint64(c.ix.Dim()) {
		// Every corpus and delta vector lies below Dim, so nothing
		// matches; hashed, the query would read as the empty vector.
		return nil, nil
	}
	qs := c.ix.prepare(q)
	out := make([]Match, 0)
	for i := range c.segments() {
		seg, ids, err := c.segment(i, qs, !topK)
		switch {
		case err != nil || len(ids) == 0:
		case topK:
			out, err = c.score(slices.Grow(out, len(ids)), &seg, ids, c.exact(&seg, qs), t, stop)
		default:
			out, err = c.verify(out, &seg, qs, ids, t, stop)
		}
		if err != nil {
			return nil, ctxWrap(err)
		}
	}
	return out, nil
}

// verify runs the built algorithm's verification over one segment's
// candidate ids at the built threshold and appends the hits to out in
// candidate order, through add.
func (c cut) verify(out []Match, seg *segment, qs *querySigs, ids []int32, t float64, stop *shard.Stopper) ([]Match, error) {
	ix := c.ix
	k := ix.engine().sigs
	switch ix.pipe.ver {
	case verExact:
		return c.score(out, seg, ids, c.exact(seg, qs), t, stop)
	case verApprox:
		// The classical fixed-n LSH estimator of §3, shared with the
		// batch join.
		n := ix.approxN
		return c.score(out, seg, ids, func(id int32) float64 { return k.approxQuery(qs, seg.sigs, id, n) }, t, stop)
	}

	// The Bayes pipelines.
	sig := k.querySig(qs, ix.packOneBit, ix.verify)
	var (
		hits []pair.Hit
		err  error
	)
	if ix.pipe.ver == verBayes {
		hits, _, err = seg.vq.VerifyQueryStop(sig, ids, stop)
	} else {
		hits, _, err = seg.vq.VerifyQueryLiteStop(sig, ids, ix.opts.LiteHashes, c.exact(seg, qs), stop)
	}
	if err != nil {
		return nil, err
	}
	if ix.pipe.checksAccepted() {
		exact := c.exact(seg, qs)
		hits = dropSubThreshold(hits, ix.opts.Threshold, func(h pair.Hit) float64 { return exact(h.ID) })
	}
	out = slices.Grow(out, len(hits))
	for _, h := range hits {
		out = c.add(out, seg, h.ID, h.Sim, t)
	}
	return out, nil
}

// exact returns the exact similarity of the query to each of the
// segment's vectors.
func (c cut) exact(seg *segment, qs *querySigs) func(id int32) float64 {
	em, raw := toExactMeasure(c.ix.engine().measure), seg.raw
	return func(id int32) float64 { return em.Sim(qs.raw, raw[id]) }
}

// score appends, through add, the candidates whose similarity to the
// query as sim computes it meets the built threshold.
func (c cut) score(out []Match, seg *segment, ids []int32, sim func(id int32) float64, t float64, stop *shard.Stopper) ([]Match, error) {
	for _, id := range ids {
		if stop.Stopped() {
			return nil, stop.Err()
		}
		if s := sim(id); s >= c.ix.opts.Threshold {
			out = c.add(out, seg, id, s, t)
		}
	}
	return out, nil
}

// add appends a hit of segment id id to out under its external id,
// unless a per-query threshold t above the built one filters it.
func (c cut) add(out []Match, seg *segment, id int32, sim, t float64) []Match {
	if t > c.ix.opts.Threshold && sim < t {
		return out
	}
	return append(out, Match{ID: seg.extID(id), Sim: sim})
}

// topK is the k-nearest query behind both TopKContext methods.
func (c cut) topK(ctx context.Context, q Vec, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxWrap(err)
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	out, err := c.run(q, c.ix.opts.Threshold, true, stop)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Sim, a.Sim), cmp.Compare(a.ID, b.ID))
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// queryBatch is the all-or-nothing fan-out behind both
// QueryBatchContext methods: every query runs over the same cut.
func (c cut) queryBatch(ctx context.Context, queries []Vec, opts QueryOptions) ([][]Match, error) {
	t, err := c.threshold(ctx, opts)
	if err != nil {
		return nil, err
	}
	// Surface a disk-backed index's first-touch verification failure as
	// the batch's error; inside the fan-out it would be swallowed.
	if err := c.ix.ready(false); err != nil {
		return nil, err
	}
	stop := shard.NewStopper(ctx)
	defer stop.Close()
	out := make([][]Match, len(queries))
	workers := c.ix.engine().workers()
	err = shard.RunCtx(ctx, len(queries), workers, shard.Chunk(len(queries), workers, 1), func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if stop.Stopped() {
				return
			}
			// Per-query errors cannot occur here: the threshold was
			// validated above, readiness was checked above, and
			// cancellation surfaces via RunCtx.
			out[i], _ = c.run(queries[i], t, false, stop)
		}
	})
	if err != nil {
		return nil, ctxWrap(err)
	}
	return out, nil
}
