package bayeslsh

import (
	"context"
	"fmt"
	"time"

	"bayeslsh/internal/core"
	"bayeslsh/internal/live"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/stats"
)

// sigKind is an engine's one signature kind: the LSH family its
// measure hashes with — hyperplane bits for Cosine and BinaryCosine
// (§4.2), minhashes for Jaccard (§4.1) — and the engine's store of
// corpus signatures, built on first use and filled only as deep as
// something reads it. NewEngine picks the kind once; every step that
// depends on the family asks it. Depths are counted in the kind's
// unit, bits or minhashes. 1-bit minhash is not a kind of its own:
// Options.OneBitMinhash picks the minhash kind's 1-bit verifier.
// Shallow copies of an engine share its kind, and so its store.
type sigKind interface {
	// Constants: the hash-count defaults (LiteHashes, MaxHashes, BandK,
	// ApproxHashes), the per-hash collision probability at similarity
	// t, the signature budget and its unit, the snapshot tags of the
	// store and band tables (the other kind's two are never written,
	// and refused), and a v3 fill depth rounded to the store's layout.
	defaults() Options
	collisionProb(t float64) float64
	budget() int
	unit() string
	tags() (store, tables uint32)
	align(n int) int
	// What o selects within the kind: multi-probe banding, the 1-bit
	// verifier, and pruning under a Beta prior fitted from candidates.
	multiProbe(o Options) bool
	oneBit(o Options) bool
	prior(o Options) bool

	// The corpus: its store (built reports whether it has been), band
	// phase and band tables over the first k·l hashes, the Bayes
	// verifier over the store (at depth p.MaxHashes) or over a live
	// delta's rows, the rows and pairwise form of the §3 estimator, and
	// the adoption at a merge of every signature prefix the compacted
	// corpus src already has in prev, in the memtable view, or in extra.
	sigStore() sigStore
	built() bool
	band(ctx context.Context, k, l int, multiProbe bool, workers int) (*lshindex.Banding, error)
	buildTables(k, l int, multiProbe bool, workers int) (bandTables, error)
	corpusVerifier(ctx context.Context, o Options, prior stats.Beta, p core.Params, workers int) (core.QueryVerifier, error)
	verifier(sigs live.View, o Options, prior stats.Beta, p core.Params) (core.QueryVerifier, error)
	rows() live.View
	approxPairs(n int) func(a, b int32) float64
	adopt(prev sigKind, src compactSrc, view live.View, extra live.Entry)

	// Queries and ingest: hash qs.work to n hashes, probe band tables,
	// the signature the Bayes verifier reads (with its deepening hook,
	// or 1-bit packed once at depth n), the §3 estimate against row id
	// of rows, a live entry's signature, and a delta memtable.
	hashQuery(qs *querySigs, n int)
	probe(t bandTables, qs *querySigs) []int32
	querySig(qs *querySigs, oneBit bool, n int) core.QuerySig
	approxQuery(qs *querySigs, rows live.View, id int32, n int) float64
	entry(ent *live.Entry, n int, oneBit bool)
	newDelta(t bandTables, multiProbe bool) *live.Memtable

	// Snapshots: the v1/v2 table section, the v3 store section (checked
	// against n vectors and fill depth fill), and the v3 table section.
	readTables(r *snapshot.Reader, n int) (bandTables, error)
	openFixed(b []byte, n, fill int) error
	openTables(b []byte, n int) (bandTables, error)
}

// bandTables is an index's banded LSH tables, of its engine's kind:
// built, decoded from a v1/v2 snapshot, or a view over a v3 section.
type bandTables interface {
	Bands() int
	BandK() int
	Validate() error
	WriteSnapshot(w *snapshot.Writer)
	WriteFixedSection(w *snapshot.Writer)
}

// sigStore is what the stores of both kinds share: filling, the fill
// hooks of verification, hashing time, and the v1/v2 and v3 codecs.
type sigStore interface {
	EnsureAllCtx(ctx context.Context, n, workers int) error
	Ensure(id int32, n int)
	Watermark() int
	Elapsed() time.Duration
	WriteSnapshot(w *snapshot.Writer)
	ReadSnapshot(r *snapshot.Reader) error
	WriteFixedSection(w *snapshot.Writer, n int)
}

// newSigKind is the one place a measure picks its signature kind, for
// engine e: hyperplane bits for Cosine and BinaryCosine, minhashes for
// Jaccard. binary reports whether the measure ignores weights, so that
// the corpus, every query and every ingested vector are binarized and
// normalized before anything hashes or probes them. A kind over a nil
// engine serves its constants only (readMeta validates options so).
func newSigKind(m Measure, e *Engine) (k sigKind, binary bool, err error) {
	switch m {
	case Cosine:
		return &bitKind{e: e}, false, nil
	case BinaryCosine:
		return &bitKind{e: e}, true, nil
	case Jaccard:
		return &minKind{e: e}, true, nil
	}
	return nil, false, fmt.Errorf("bayeslsh: unknown measure %v", m)
}

// bitKind is the hyperplane kind of the cosine measures: signatures
// are packed sign bits of Gaussian projections (§4.2).
type bitKind struct {
	e   *Engine
	fam *sighash.BlockFamily
	st  *sighash.Store
}

// family returns the engine's seeded hyperplane family, constructing
// it on first use. A v3 open builds its fixed store over the mapped
// signatures from this same family, so both residencies hash queries
// alike.
func (k *bitKind) family() *sighash.BlockFamily {
	if k.fam == nil {
		k.fam = sighash.NewBlockFamily(k.e.work.Dim, k.e.cfg.SignatureBits, 128, rng.Derive(k.e.cfg.Seed, 1))
	}
	return k.fam
}

// keepFamily makes k hash with prev's family — and so with every
// projection row prev's lifetime already materialized — when k would
// construct an identical one: a family is a pure function of (dim,
// SignatureBits, Seed). Must run before k's first family call.
func (k *bitKind) keepFamily(prev *bitKind) {
	a, b := prev.e.cfg, k.e.cfg
	if prev.fam != nil && prev.e.work.Dim == k.e.work.Dim && a.SignatureBits == b.SignatureBits && a.Seed == b.Seed {
		k.fam = prev.fam
	}
}

// store returns the signature store, constructing it on first use.
func (k *bitKind) store() *sighash.Store {
	if k.st == nil {
		k.st = sighash.NewStore(k.e.work, k.family())
	}
	return k.st
}

func (*bitKind) defaults() Options {
	return Options{LiteHashes: 128, MaxHashes: 2048, BandK: 8, ApproxHashes: 2048}
}
func (*bitKind) collisionProb(t float64) float64 { return sighash.CosineToR(t) }
func (k *bitKind) budget() int                   { return k.store().MaxBits() }
func (*bitKind) unit() string                    { return "signature bits" }
func (*bitKind) tags() (uint32, uint32)          { return sectBitStore, sectBitTables }
func (*bitKind) align(n int) int                 { return (n + 63) / 64 * 64 }
func (*bitKind) multiProbe(o Options) bool       { return o.MultiProbe }
func (*bitKind) oneBit(Options) bool             { return false }
func (*bitKind) prior(Options) bool              { return false }

func (k *bitKind) sigStore() sigStore { return k.store() }
func (k *bitKind) built() bool        { return k.st != nil }

func (k *bitKind) band(ctx context.Context, bandK, l int, multiProbe bool, workers int) (*lshindex.Banding, error) {
	return lshindex.BandBitsCtx(ctx, k.store().Sigs(), bandK, l, multiProbe, workers)
}

func (k *bitKind) buildTables(bandK, l int, multiProbe bool, workers int) (bandTables, error) {
	return asTables(lshindex.BuildBits(k.store().Sigs(), bandK, l, workers, multiProbe))
}

func (k *bitKind) corpusVerifier(_ context.Context, o Options, prior stats.Beta, p core.Params, _ int) (core.QueryVerifier, error) {
	st := k.store()
	p.Ensure, p.Watermark = st.Ensure, st.Watermark()
	return k.verifier(k.rows(), o, prior, p)
}

func (*bitKind) verifier(sigs live.View, _ Options, _ stats.Beta, p core.Params) (core.QueryVerifier, error) {
	return core.NewCosine(sigs.Bits, p.MaxHashes, p)
}

func (k *bitKind) rows() live.View { return live.View{Bits: k.store().Sigs()} }

func (k *bitKind) approxPairs(n int) func(a, b int32) float64 {
	sigs := k.store().Sigs()
	return func(a, b int32) float64 { return approxCosine(sigs[a], sigs[b], n) }
}

func (k *bitKind) adopt(from sigKind, src compactSrc, view live.View, extra live.Entry) {
	prev := from.(*bitKind)
	k.keepFamily(prev)
	if prev.st != nil {
		adoptRows(k.store().Adopt, src, prev.st.Sigs(), prev.st.FilledBits, view.Bits, extra.Bits, 64)
	}
}

func (k *bitKind) hashQuery(qs *querySigs, n int) {
	qs.bits = k.store().Family().NewQuerySig(qs.work)
	qs.bits.Ensure(n)
}

func (*bitKind) probe(t bandTables, qs *querySigs) []int32 {
	return t.(*lshindex.BitsTables).Probe(qs.bits.Bits())
}

func (*bitKind) querySig(qs *querySigs, _ bool, _ int) core.QuerySig {
	return core.QuerySig{Bits: qs.bits.Bits(), Ensure: qs.bits.Ensure}
}

func (*bitKind) approxQuery(qs *querySigs, rows live.View, id int32, n int) float64 {
	qs.bits.Ensure(n)
	return approxCosine(qs.bits.Bits(), rows.Bits[id], n)
}

func (k *bitKind) entry(ent *live.Entry, n int, _ bool) {
	ent.Bits = k.store().Family().SignatureN(ent.Work, n)
}

func (*bitKind) newDelta(t bandTables, multiProbe bool) *live.Memtable {
	return live.NewMemtable(lshindex.NewBitsDelta(t.BandK(), t.Bands(), multiProbe), nil, nil)
}

func (*bitKind) readTables(r *snapshot.Reader, n int) (bandTables, error) {
	return asTables(lshindex.ReadBitsTablesSnapshot(r, n))
}

func (k *bitKind) openFixed(b []byte, n, fill int) error {
	sigs, nbits, err := sighash.OpenFixedSection(b)
	if err != nil {
		return err
	}
	fam := k.family()
	if nbits != fill || len(sigs) != n || nbits > fam.MaxBits() {
		return fmt.Errorf("bit store holds %d vectors × %d bits; meta declares %d × %d (family max %d)",
			len(sigs), nbits, n, fill, fam.MaxBits())
	}
	k.st = sighash.NewFixedStore(fam, sigs, nbits)
	return nil
}

func (*bitKind) openTables(b []byte, n int) (bandTables, error) {
	return asTables(lshindex.OpenBitsView(b, n))
}

// minKind is the minwise kind of Jaccard: signatures are minhashes of
// the feature sets (§4.1), verified in full under a fitted Beta prior
// or, with OneBitMinhash, packed to their lowest bit.
type minKind struct {
	e  *Engine
	st *minhash.Store
}

// store returns the signature store, constructing it (over a minwise
// family seeded like every other engine's) on first use.
func (k *minKind) store() *minhash.Store {
	if k.st == nil {
		k.st = minhash.NewStore(k.e.work, k.family(), 32)
	}
	return k.st
}

// family constructs the engine's seeded minwise family.
func (k *minKind) family() *minhash.Family {
	return minhash.NewFamily(k.e.cfg.MinHashes, rng.Derive(k.e.cfg.Seed, 2))
}

func (*minKind) defaults() Options {
	return Options{LiteHashes: 64, MaxHashes: 512, BandK: 3, ApproxHashes: 360}
}
func (*minKind) collisionProb(t float64) float64 { return t }
func (k *minKind) budget() int                   { return k.store().MaxHashes() }
func (*minKind) unit() string                    { return "minhashes" }
func (*minKind) tags() (uint32, uint32)          { return sectMinStore, sectMinhashTables }
func (*minKind) align(n int) int                 { return n }
func (*minKind) multiProbe(Options) bool         { return false }
func (*minKind) oneBit(o Options) bool           { return o.OneBitMinhash }
func (*minKind) prior(o Options) bool            { return !o.OneBitMinhash }

func (k *minKind) sigStore() sigStore { return k.store() }
func (k *minKind) built() bool        { return k.st != nil }

func (k *minKind) band(ctx context.Context, bandK, l int, _ bool, workers int) (*lshindex.Banding, error) {
	return lshindex.BandMinhashCtx(ctx, k.store().Sigs(), bandK, l, workers)
}

func (k *minKind) buildTables(bandK, l int, _ bool, workers int) (bandTables, error) {
	return asTables(lshindex.BuildMinhash(k.store().Sigs(), bandK, l, workers))
}

func (k *minKind) corpusVerifier(ctx context.Context, o Options, prior stats.Beta, p core.Params, workers int) (core.QueryVerifier, error) {
	st := k.store()
	if !o.OneBitMinhash {
		p.Ensure, p.Watermark = st.Ensure, st.Watermark()
		return k.verifier(k.rows(), o, prior, p)
	}
	// 1-bit signatures are packed eagerly, every row to p.MaxHashes
	// (they are 32× smaller, so the packing is cheap).
	if err := st.EnsureAllCtx(ctx, p.MaxHashes, workers); err != nil {
		return nil, err
	}
	p.Watermark = p.MaxHashes
	return k.verifier(live.View{One: minhash.PackOneBitAll(st.Sigs())}, o, prior, p)
}

func (*minKind) verifier(sigs live.View, o Options, prior stats.Beta, p core.Params) (core.QueryVerifier, error) {
	if o.OneBitMinhash {
		return core.NewOneBitJaccard(sigs.One, p.MaxHashes, p)
	}
	return core.NewJaccard(sigs.Min, prior, p)
}

func (k *minKind) rows() live.View { return live.View{Min: k.store().Sigs()} }

func (k *minKind) approxPairs(n int) func(a, b int32) float64 {
	sigs := k.store().Sigs()
	return func(a, b int32) float64 { return approxJaccard(sigs[a], sigs[b], n) }
}

func (k *minKind) adopt(from sigKind, src compactSrc, view live.View, extra live.Entry) {
	if prev := from.(*minKind); prev.st != nil {
		adoptRows(k.store().Adopt, src, prev.st.Sigs(), prev.st.FilledHashes, view.Min, extra.Min, 1)
	}
}

func (k *minKind) hashQuery(qs *querySigs, n int) {
	qs.min = k.store().Family().NewQuerySig(qs.work)
	qs.min.Ensure(n)
}

func (*minKind) probe(t bandTables, qs *querySigs) []int32 {
	return t.(*lshindex.MinhashTables).Probe(qs.min.Hashes())
}

func (*minKind) querySig(qs *querySigs, oneBit bool, n int) core.QuerySig {
	if !oneBit {
		return core.QuerySig{Min: qs.min.Hashes(), Ensure: qs.min.Ensure}
	}
	// The 1-bit packing has no deepening hook: it is hashed and packed
	// to verification depth once, on first use.
	if qs.one == nil {
		qs.min.Ensure(n)
		qs.one = minhash.PackOneBit(qs.min.Hashes()[:qs.min.Filled()])
	}
	return core.QuerySig{Bits: qs.one}
}

func (*minKind) approxQuery(qs *querySigs, rows live.View, id int32, n int) float64 {
	qs.min.Ensure(n)
	return approxJaccard(qs.min.Hashes(), rows.Min[id], n)
}

func (k *minKind) entry(ent *live.Entry, n int, oneBit bool) {
	ent.Min = k.store().Family().SignatureN(ent.Work, n)
	if oneBit {
		ent.One = minhash.PackOneBit(ent.Min)
	}
}

func (*minKind) newDelta(t bandTables, _ bool) *live.Memtable {
	return live.NewMemtable(nil, lshindex.NewMinhashDelta(t.BandK(), t.Bands()), nil)
}

func (*minKind) readTables(r *snapshot.Reader, n int) (bandTables, error) {
	return asTables(lshindex.ReadMinhashTablesSnapshot(r, n))
}

func (k *minKind) openFixed(b []byte, n, fill int) error {
	sigs, depth, err := minhash.OpenFixedSection(b)
	if err != nil {
		return err
	}
	fam := k.family()
	if depth != fill || len(sigs) != n || depth > fam.Size() {
		return fmt.Errorf("minhash store holds %d vectors × %d hashes; meta declares %d × %d (family max %d)",
			len(sigs), depth, n, fill, fam.Size())
	}
	k.st = minhash.NewFixedStore(fam, sigs, depth)
	return nil
}

func (*minKind) openTables(b []byte, n int) (bandTables, error) {
	return asTables(lshindex.OpenMinhashView(b, n))
}

// asTables returns built, decoded or opened tables as bandTables, nil
// on error (never a typed nil).
func asTables[T bandTables](t T, err error) (bandTables, error) {
	if err != nil {
		return nil, err
	}
	return t, nil
}

// adoptRows hands adopt every signature prefix of the compacted corpus
// src: a base row's filled prefix from prev, a memtable slot's row from
// mem, and last the row of extra, the vector an Add is ingesting (nil
// rows are skipped). A row of w words holds w·per hashes. Filled is
// monotone and a filled prefix immutable, so reading prev's rows
// concurrently with query-driven fills is safe.
func adoptRows[W any](adopt func(int32, []W, int), src compactSrc, prev [][]W, filled func(int32) int, mem [][]W, extra []W, per int) {
	for i := range src.vecs {
		if r := src.baseRows[i]; r >= 0 {
			adopt(int32(i), prev[r], filled(r))
		} else if s := src.memSlots[i]; len(mem[s]) > 0 {
			adopt(int32(i), mem[s], len(mem[s])*per)
		}
	}
	if len(extra) > 0 {
		adopt(int32(len(src.vecs)), extra, len(extra)*per)
	}
}

// approxJaccard is the §3 maximum-likelihood Jaccard estimate: the
// match rate of the first n minhashes of x and y. The batch LSHApprox
// pipeline and the index's query path both estimate through it, so
// the two cannot drift.
func approxJaccard(x, y []uint32, n int) float64 {
	return float64(minhash.Matches(x, y, 0, n)) / float64(n)
}

// approxCosine is the §3 estimate for the cosine measures: the match
// rate of the first n hyperplane bits of x and y, clamped to the
// collision-probability support [0.5, 1] and mapped back to cosine
// space. Shared like approxJaccard.
func approxCosine(x, y []uint64, n int) float64 {
	return sighash.RToCosine(min(max(float64(sighash.MatchCount(x, y, 0, n))/float64(n), 0.5), 1))
}
