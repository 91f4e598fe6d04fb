package bayeslsh

import (
	"fmt"
	"math"
	"testing"

	"bayeslsh/internal/core"
)

// TestEmptyVectorsNeverMatch covers vectors with no hashed features.
// Their exact similarity to anything is 0, but their signatures are
// constants (every hyperplane bit set, every minhash Empty), so two of
// them collide on every hash. For every measure and every pipeline,
// batch and query, each reported similarity must agree with the exact
// one BruteForce scores the pair with — which also means no pair with
// an empty vector, nor any match for a query whose only feature lies
// beyond Dim, is ever reported.
func TestEmptyVectorsNeverMatch(t *testing.T) {
	// Estimates may stray from the exact similarity by a few standard
	// errors; a constant signature strays by the whole range.
	const tol = 0.2
	for _, cell := range queryTestConfigs() {
		ds := cell.prep(smallDataset(t, 300))
		e1, e2 := ds.Add(nil), ds.Add(map[uint32]float64{})
		outside := NewVec(map[uint32]float64{uint32(ds.Dim()) + 5: 1})
		check := func(what string, a, b int, sim float64) {
			t.Helper()
			if exact := ds.Similarity(cell.measure, a, b); math.Abs(sim-exact) > tol {
				t.Errorf("%v %s: pair (%d, %d) reported at %v, exact %v", cell.measure, what, a, b, sim, exact)
			}
		}
		eng, err := NewEngine(ds, cell.measure, cell.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range append([]Algorithm{BruteForce}, Algorithms(cell.measure)...) {
			opts := Options{Algorithm: alg, Threshold: cell.threshold}
			out, err := eng.Search(opts)
			if err != nil {
				t.Fatalf("%v %v: %v", cell.measure, alg, err)
			}
			for _, r := range out.Results {
				check(fmt.Sprintf("%v batch", alg), r.A, r.B, r.Sim)
			}
			if alg == PPJoin {
				continue // no query-serving form
			}
			ix, err := eng.BuildIndex(opts)
			if err != nil {
				t.Fatalf("%v %v: %v", cell.measure, alg, err)
			}
			if ms, err := ix.Query(outside, QueryOptions{}); err != nil || len(ms) != 0 {
				t.Errorf("%v %v: query with no feature below Dim returned %v, %v", cell.measure, alg, ms, err)
			}
			for _, i := range []int{0, 1, 2, 3, e1, e2} {
				ms, err := ix.Query(ds.Vector(i), QueryOptions{})
				if err != nil {
					t.Fatalf("%v %v: query %d: %v", cell.measure, alg, i, err)
				}
				for _, mt := range ms {
					if mt.ID != i {
						check(fmt.Sprintf("%v query %d", alg, i), i, mt.ID, mt.Sim)
					}
				}
			}
		}
	}
}

// TestQueryHashesOnlyWhatItReads checks the §4.2 rule on the query
// side: a query is hashed only as deep as its probe and its
// candidates' rounds read. The query's features are carried by no
// corpus vector (they lie in a feature range the corpus leaves
// unused), so every projection row it touches is new and the family's
// row count grows by exactly the query's blocks × features.
func TestQueryHashesOnlyWhatItReads(t *testing.T) {
	const nf = 5
	ds := smallDataset(t, 300).TfIdf().Normalize()
	unused := ds.Dim()
	ds.c.Dim += 1000
	next := 0
	// freshQuery returns a query over nf features no vector has used yet.
	freshQuery := func() Vec {
		m := map[uint32]float64{}
		for j := 0; j < nf; j++ {
			m[uint32(unused+next)] = float64(j + 1)
			next++
		}
		return NewVec(m)
	}
	const bb = 128 // the engine's hyperplane block size
	blocks := func(bits int) int { return (bits + bb - 1) / bb }

	build := func(opts Options) *Index {
		t.Helper()
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 2048}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// rowsFor runs query on q and returns how many projection rows it
	// materialized, plus q's band-table candidates and their
	// full-depth verification stats (computed afterwards, so they add
	// nothing to the count).
	rowsFor := func(ix *Index, q Vec, query func(Vec) error) (int, []int32, core.Stats) {
		t.Helper()
		fam := ix.engine().bitSigStore().Family()
		before := fam.Rows()
		if err := query(q); err != nil {
			t.Fatal(err)
		}
		grown := fam.Rows() - before
		work := q.v.Clone().Normalize()
		ids := ix.bits.Probe(fam.SignatureN(work, ix.Stats().BandK*ix.Stats().Tables))
		var st core.Stats
		if ix.vq != nil && len(ids) > 0 {
			_, st = ix.vq.VerifyQuery(core.QuerySig{Bits: fam.SignatureN(work, fam.MaxBits())}, ids)
		}
		return grown, ids, st
	}
	threshold := func(ix *Index) func(Vec) error {
		return func(q Vec) error { _, err := ix.Query(q, QueryOptions{}); return err }
	}

	for _, alg := range []Algorithm{LSHBayesLSH, LSHBayesLSHLite} {
		ix := build(Options{Algorithm: alg, Threshold: 0.9})
		band := blocks(ix.Stats().BandK * ix.Stats().Tables)
		full := blocks(ix.vq.Params().MaxHashes)
		clean := 0
		for attempt := 0; attempt < 20; attempt++ {
			grown, ids, st := rowsFor(ix, freshQuery(), threshold(ix))
			if len(ids) > 0 && st.SurvivorsByRound[0] > 0 {
				// Some candidate reads past round 1: the query deepens
				// with it, but never to full depth on a zero-similarity
				// candidate set.
				if grown < band*nf || grown >= full*nf {
					t.Errorf("%v: query whose candidates survive round 1 materialized %d rows, want in [%d, %d)", alg, grown, band*nf, full*nf)
				}
				continue
			}
			if grown != band*nf {
				t.Errorf("%v: query with %d candidates, all pruned in round 1, materialized %d rows, want %d band blocks × %d features",
					alg, len(ids), grown, band, nf)
			}
			if len(ids) > 0 {
				clean++
			}
		}
		if clean == 0 {
			t.Fatalf("%v: no query had candidates that all pruned in round 1; verification went unexercised", alg)
		}
		topK := func(q Vec) error { _, err := ix.TopK(q, 3); return err }
		if grown, _, _ := rowsFor(ix, freshQuery(), topK); grown > band*nf {
			t.Errorf("%v: TopK materialized %d rows, want at most %d band blocks × %d features", alg, grown, band, nf)
		}
	}

	ix := build(Options{Algorithm: LSHApprox, Threshold: 0.9, ApproxHashes: 512})
	band := blocks(ix.Stats().BandK * ix.Stats().Tables)
	probed := false
	for attempt := 0; attempt < 8; attempt++ {
		grown, ids, _ := rowsFor(ix, freshQuery(), threshold(ix))
		want := band * nf
		if len(ids) > 0 {
			want = max(band, blocks(512)) * nf
			probed = true
		}
		if grown != want {
			t.Errorf("LSHApprox: query with %d candidates materialized %d rows, want %d", len(ids), grown, want)
		}
	}
	if !probed {
		t.Fatal("LSHApprox: no query had candidates; the estimator went unexercised")
	}
}
