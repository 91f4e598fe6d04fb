package bayeslsh

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
)

// liveScript drives a LiveIndex and, in parallel, the model of the
// equivalent corpus: live external ids and their raw vectors, in
// ingestion order with deletions removed.
type liveScript struct {
	t    *testing.T
	li   *LiveIndex
	ids  []int
	vecs []vector.Vector
}

func (s *liveScript) add(v Vec) int {
	s.t.Helper()
	id, err := s.li.Add(v)
	if err != nil {
		s.t.Fatalf("Add: %v", err)
	}
	s.ids = append(s.ids, id)
	s.vecs = append(s.vecs, v.v)
	return id
}

func (s *liveScript) del(id int) {
	s.t.Helper()
	if !s.li.Delete(id) {
		s.t.Fatalf("Delete(%d) reported absent", id)
	}
	for i, x := range s.ids {
		if x == id {
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			s.vecs = append(s.vecs[:i:i], s.vecs[i+1:]...)
			return
		}
	}
	s.t.Fatalf("Delete(%d): not in model", id)
}

// coldEquivalent builds the cold Index the determinism contract
// compares against: same config and options over the equivalent
// corpus (the model's vectors, same declared Dim).
func (s *liveScript) coldEquivalent(dim int, m Measure, cfg EngineConfig, opts Options) *Index {
	s.t.Helper()
	ds := &Dataset{c: &vector.Collection{Dim: dim, Vecs: s.vecs}}
	ix, err := NewIndex(ds, m, cfg, opts)
	if err != nil {
		s.t.Fatalf("cold equivalent: %v", err)
	}
	return ix
}

// checkEquivalent asserts that the live index answers Query, TopK and
// QueryBatch bit-identically (modulo the external-id map) to the cold
// index over the equivalent corpus, for every supplied query: at the
// built threshold and one raised above it, and with TopK both clamped
// to a small k and asked for more than the corpus holds.
func (s *liveScript) checkEquivalent(cold *Index, queries []Vec, label string) {
	s.t.Helper()
	for _, opts := range []QueryOptions{{}, {Threshold: cold.Threshold() + 0.1}} {
		label := fmt.Sprintf("%s@%v", label, opts.Threshold)
		batchLive, err := s.li.QueryBatch(queries, opts)
		if err != nil {
			s.t.Fatalf("%s: live QueryBatch: %v", label, err)
		}
		batchCold, err := cold.QueryBatch(queries, opts)
		if err != nil {
			s.t.Fatalf("%s: cold QueryBatch: %v", label, err)
		}
		for qi, q := range queries {
			lm, err := s.li.Query(q, opts)
			if err != nil {
				s.t.Fatalf("%s: live Query %d: %v", label, qi, err)
			}
			cm, err := cold.Query(q, opts)
			if err != nil {
				s.t.Fatalf("%s: cold Query %d: %v", label, qi, err)
			}
			s.compareMatches(lm, cm, fmt.Sprintf("%s: Query %d", label, qi))
			s.compareMatches(batchLive[qi], batchCold[qi], fmt.Sprintf("%s: QueryBatch %d", label, qi))
		}
	}
	for _, k := range []int{5, len(s.ids) + 1} {
		for qi, q := range queries {
			lt, err := s.li.TopK(q, k)
			if err != nil {
				s.t.Fatalf("%s: live TopK(%d) %d: %v", label, k, qi, err)
			}
			ct, err := cold.TopK(q, k)
			if err != nil {
				s.t.Fatalf("%s: cold TopK(%d) %d: %v", label, k, qi, err)
			}
			s.compareMatches(lt, ct, fmt.Sprintf("%s: TopK(%d) %d", label, k, qi))
		}
	}
}

// compareMatches compares live matches (external ids) to cold matches
// (compact ids) through the model's id map, demanding exact float
// equality — both sides run the same query code over identical
// signature content.
func (s *liveScript) compareMatches(livem, coldm []Match, label string) {
	s.t.Helper()
	if len(livem) != len(coldm) {
		s.t.Fatalf("%s: live %d matches, cold %d\nlive: %v\ncold: %v", label, len(livem), len(coldm), livem, coldm)
	}
	for i := range coldm {
		wantID := s.ids[coldm[i].ID]
		if livem[i].ID != wantID || livem[i].Sim != coldm[i].Sim {
			s.t.Fatalf("%s: match %d = {%d, %v}, want {%d (compact %d), %v}",
				label, i, livem[i].ID, livem[i].Sim, wantID, coldm[i].ID, coldm[i].Sim)
		}
	}
}

// liveQueries assembles the probe set: every live vector (self
// queries), a few deleted vectors' raw forms (must still answer), and
// an out-of-corpus blend.
func (s *liveScript) liveQueries(deleted []Vec) []Vec {
	qs := make([]Vec, 0, len(s.vecs)+len(deleted))
	for _, v := range s.vecs {
		qs = append(qs, Vec{v: v})
	}
	return append(qs, deleted...)
}

// TestLiveEquivalence is the live-index determinism guarantee: for
// every measure and query-serving pipeline, after an interleaving of
// Add, Delete and merges, every query entry point answers
// bit-identically to a cold Index built over the equivalent corpus.
func TestLiveEquivalence(t *testing.T) {
	const seedN, poolN = 100, 160
	for _, tc := range queryTestConfigs() {
		tc := tc
		t.Run(tc.measure.String(), func(t *testing.T) {
			pool := tc.prep(smallDataset(t, poolN))
			for _, alg := range queryAlgorithms() {
				opts := Options{Algorithm: alg, Threshold: tc.threshold}
				seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
				li, err := NewLiveIndex(seed, tc.measure, tc.cfg, opts, LiveConfig{MaxDelta: -1, MaxRatio: -1})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				s := &liveScript{t: t, li: li}
				for i := 0; i < seedN; i++ {
					s.ids = append(s.ids, i)
					s.vecs = append(s.vecs, seed.c.Vecs[i])
				}

				// Phase 1: ingest + delete, no merge (delta-heavy state).
				var deleted []Vec
				for i := seedN; i < seedN+30; i++ {
					s.add(pool.Vector(i))
				}
				// External ids equal pool rows here: seeds are rows
				// 0..seedN-1 and adds follow in pool order.
				for _, id := range []int{3, 17, 42, 99, seedN + 5, seedN + 29} {
					deleted = append(deleted, Vec{v: pool.c.Vecs[id]})
					s.del(id)
				}
				cold := s.coldEquivalent(pool.Dim(), tc.measure, tc.cfg, opts)
				s.checkEquivalent(cold, s.liveQueries(deleted), fmt.Sprintf("%v/pre-merge", alg))

				// Phase 2: merge, then mutate on top of the merged base.
				li.Compact()
				if got := li.Stats(); got.Delta != 0 || got.Dead != 0 {
					t.Fatalf("%v: after Compact: %+v, want empty delta and no dead", alg, got)
				}
				for i := seedN + 30; i < poolN; i++ {
					s.add(pool.Vector(i))
				}
				s.del(57)         // a base vector from the original seed
				s.del(seedN + 40) // a post-merge delta vector
				deleted = append(deleted,
					Vec{v: pool.c.Vecs[57]}, Vec{v: pool.c.Vecs[seedN+40]})
				cold = s.coldEquivalent(pool.Dim(), tc.measure, tc.cfg, opts)
				s.checkEquivalent(cold, s.liveQueries(deleted), fmt.Sprintf("%v/post-merge", alg))
				li.Close()
			}
		})
	}
}

// TestLiveVariants covers the option-dependent live paths the main
// matrix skips: multi-probe banding and 1-bit minhash verification.
func TestLiveVariants(t *testing.T) {
	cases := []struct {
		name    string
		measure Measure
		cfg     EngineConfig
		opts    Options
		prep    func(*Dataset) *Dataset
	}{
		{"multiprobe", Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
			Options{Algorithm: LSHBayesLSH, Threshold: 0.7, MultiProbe: true},
			func(d *Dataset) *Dataset { return d.TfIdf().Normalize() }},
		{"onebit", Jaccard, EngineConfig{Seed: 8},
			Options{Algorithm: LSHBayesLSHLite, Threshold: 0.4, OneBitMinhash: true},
			func(d *Dataset) *Dataset { return d.Binarize() }},
	}
	const seedN, poolN = 100, 140
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			pool := c.prep(smallDataset(t, poolN))
			seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
			li, err := NewLiveIndex(seed, c.measure, c.cfg, c.opts, LiveConfig{MaxDelta: -1, MaxRatio: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer li.Close()
			s := &liveScript{t: t, li: li}
			for i := 0; i < seedN; i++ {
				s.ids = append(s.ids, i)
				s.vecs = append(s.vecs, seed.c.Vecs[i])
			}
			for i := seedN; i < poolN; i++ {
				s.add(pool.Vector(i))
			}
			s.del(11)
			s.del(seedN + 7)
			cold := s.coldEquivalent(pool.Dim(), c.measure, c.cfg, c.opts)
			s.checkEquivalent(cold, s.liveQueries(nil), "pre-merge")
			li.Compact()
			cold = s.coldEquivalent(pool.Dim(), c.measure, c.cfg, c.opts)
			s.checkEquivalent(cold, s.liveQueries(nil), "post-merge")
		})
	}
}

// TestLivePriorRefitKeepsBaseMetadata: under the prior-bearing
// pipelines every Add and Delete republishes the base with a refit
// verifier. The republished base must keep the build's pipeline
// decision and corpus statistics, and a snapshot cut before the next
// merge must persist them.
func TestLivePriorRefitKeepsBaseMetadata(t *testing.T) {
	const seedN, poolN = 80, 90
	pool := smallDataset(t, poolN).Binarize()
	seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
	for _, alg := range []Algorithm{LSHBayesLSH, LSHBayesLSHLite, AllPairsBayesLSH, AllPairsBayesLSHLite} {
		t.Run(alg.String(), func(t *testing.T) {
			li, err := NewLiveIndex(seed, Jaccard, EngineConfig{Seed: 8}, Options{Algorithm: alg, Threshold: 0.4},
				LiveConfig{MaxDelta: -1, MaxRatio: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer li.Close()
			if !li.priorBearing {
				t.Fatalf("%v over Jaccard is not prior-bearing", alg)
			}
			plan, cstats, prior := li.Plan(), li.CorpusStats(), li.gen.Load().prior
			if cstats.Vectors != seedN {
				t.Fatalf("CorpusStats().Vectors = %d before any mutation, want %d", cstats.Vectors, seedN)
			}
			check := func(label string) {
				t.Helper()
				if got := li.Plan(); !reflect.DeepEqual(got, plan) {
					t.Fatalf("after %s: Plan() = %+v, want %+v", label, got, plan)
				}
				if got := li.CorpusStats(); got != cstats {
					t.Fatalf("after %s: CorpusStats() = %+v, want %+v", label, got, cstats)
				}
			}
			for i := seedN; i < poolN; i++ {
				if _, err := li.Add(pool.Vector(i)); err != nil {
					t.Fatal(err)
				}
			}
			check("Add")
			if !li.Delete(3) {
				t.Fatal("Delete(3) reported absent")
			}
			check("Delete")
			if li.gen.Load().prior == prior {
				t.Fatal("no mutation refit the prior; the test exercises nothing")
			}
			path := filepath.Join(t.TempDir(), "live.snap")
			if err := li.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			info, err := InspectFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Stats != cstats {
				t.Fatalf("snapshot Stats = %+v, want %+v", info.Stats, cstats)
			}
		})
	}
}

// TestLiveAutoMerge exercises the policy-triggered background merge:
// with a tiny MaxDelta every few adds schedule a merge, and after
// quiescing the index answers exactly like a cold build.
func TestLiveAutoMerge(t *testing.T) {
	const seedN, poolN = 80, 160
	pool := smallDataset(t, poolN).TfIdf().Normalize()
	seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	cfg := EngineConfig{Seed: 7, SignatureBits: 1024}
	li, err := NewLiveIndex(seed, Cosine, cfg, opts, LiveConfig{MaxDelta: 8, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	s := &liveScript{t: t, li: li}
	for i := 0; i < seedN; i++ {
		s.ids = append(s.ids, i)
		s.vecs = append(s.vecs, seed.c.Vecs[i])
	}
	for i := seedN; i < poolN; i++ {
		s.add(pool.Vector(i))
		if i%13 == 0 {
			s.del(s.ids[len(s.ids)/2])
		}
	}
	li.Compact() // quiesce: every scheduled merge has run
	if st := li.Stats(); st.Merges == 0 {
		t.Fatalf("policy MaxDelta=8 never triggered a merge: %+v", st)
	}
	cold := s.coldEquivalent(pool.Dim(), Cosine, cfg, opts)
	s.checkEquivalent(cold, s.liveQueries(nil), "auto-merge")
}

// TestLiveMergeKeepsHashFamily pins what a merge carries over besides
// signatures: the base engine's hyperplane family, with every
// projection row already materialized. Across an explicit Compact and
// across policy-triggered merges the family is the same object and
// its row count never drops — so the first mutation or query after a
// merge regenerates nothing — while answers stay cold-equivalent.
func TestLiveMergeKeepsHashFamily(t *testing.T) {
	const seedN, poolN = 80, 140
	pool := smallDataset(t, poolN).TfIdf().Normalize()
	seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	cfg := EngineConfig{Seed: 7, SignatureBits: 1024}
	li, err := NewLiveIndex(seed, Cosine, cfg, opts, LiveConfig{MaxDelta: 8, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	s := &liveScript{t: t, li: li}
	for i := 0; i < seedN; i++ {
		s.ids = append(s.ids, i)
		s.vecs = append(s.vecs, seed.c.Vecs[i])
	}
	family := func() *sighash.BlockFamily { return bitStore(li.gen.Load().base.engine()).Family() }
	fam, rows := family(), family().Rows()
	if rows == 0 {
		t.Fatal("the build hashed the seed corpus without materializing a row")
	}
	check := func(label string, wantMerges int64) {
		t.Helper()
		if st := li.Stats(); st.Merges < wantMerges {
			t.Fatalf("%s: %d merges, want at least %d", label, st.Merges, wantMerges)
		}
		if got := family(); got != fam {
			t.Fatalf("%s: merged base hashes with a new family %p, want the outgoing base's %p", label, got, fam)
		}
		if got := fam.Rows(); got < rows {
			t.Fatalf("%s: family holds %d rows, held %d before the merge", label, got, rows)
		}
		rows = fam.Rows()
	}

	for i := seedN; i < seedN+3; i++ { // below MaxDelta: only Compact merges
		s.add(pool.Vector(i))
	}
	li.Compact()
	check("Compact", 1)

	for i := seedN + 3; i < poolN; i++ {
		s.add(pool.Vector(i))
	}
	s.del(s.ids[len(s.ids)/2])
	li.Compact() // quiesce the policy-triggered merges
	check("policy-triggered merges", 3)

	cold := s.coldEquivalent(pool.Dim(), Cosine, cfg, opts)
	s.checkEquivalent(cold, s.liveQueries(nil), "kept-family")
}

// TestKeepBitFamilyNeedsIdenticalParameters covers the guard on the
// hand-over. No live path changes them today (SetRuntime moves only
// Parallelism and BatchSize, which keep the family), but an engine
// whose family would differ in any parameter must build its own.
func TestKeepBitFamilyNeedsIdenticalParameters(t *testing.T) {
	ds := smallDataset(t, 20).TfIdf().Normalize()
	base := EngineConfig{Seed: 7, SignatureBits: 1024}
	prev, err := NewEngine(ds, Cosine, base)
	if err != nil {
		t.Fatal(err)
	}
	fam := bitStore(prev).Family()
	wider := &Dataset{c: &vector.Collection{Dim: ds.Dim() + 1, Vecs: ds.c.Vecs}}
	for _, c := range []struct {
		name string
		ds   *Dataset
		cfg  EngineConfig
		keep bool
	}{
		{"identical", ds, base, true},
		{"runtime knobs", ds, EngineConfig{Seed: 7, SignatureBits: 1024, Parallelism: 3, BatchSize: 5}, true},
		{"seed", ds, EngineConfig{Seed: 8, SignatureBits: 1024}, false},
		{"signature bits", ds, EngineConfig{Seed: 7, SignatureBits: 512}, false},
		{"dimension", wider, base, false},
	} {
		e, err := NewEngine(c.ds, Cosine, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.sigs.(*bitKind).keepFamily(prev.sigs.(*bitKind))
		if got := bitStore(e).Family(); (got == fam) != c.keep {
			t.Errorf("%s: kept the previous family = %v, want %v", c.name, got == fam, c.keep)
		}
	}
}

// TestLiveConcurrent hammers a live index with concurrent queries
// while the main goroutine adds, deletes and merges — the -race
// acceptance criterion. Queries must never error or return a
// tombstoned id; the final state must be cold-equivalent.
func TestLiveConcurrent(t *testing.T) {
	const seedN, poolN = 80, 200
	pool := smallDataset(t, poolN).TfIdf().Normalize()
	seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	cfg := EngineConfig{Seed: 7, SignatureBits: 1024, Parallelism: 2}
	li, err := NewLiveIndex(seed, Cosine, cfg, opts, LiveConfig{MaxDelta: 16, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := &liveScript{t: t, li: li}
	for i := 0; i < seedN; i++ {
		s.ids = append(s.ids, i)
		s.vecs = append(s.vecs, seed.c.Vecs[i])
	}

	stopq := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopq:
					return
				default:
				}
				q := pool.Vector((g*31 + i) % poolN)
				if _, err := li.Query(q, QueryOptions{}); err != nil {
					t.Errorf("concurrent Query: %v", err)
					return
				}
				if _, err := li.TopK(q, 3); err != nil {
					t.Errorf("concurrent TopK: %v", err)
					return
				}
			}
		}(g)
	}
	for i := seedN; i < poolN; i++ {
		s.add(pool.Vector(i))
		if i%9 == 0 {
			s.del(s.ids[(i*7)%len(s.ids)])
		}
		if i%17 == 0 {
			// Race the runtime knobs against queries and merges too.
			li.SetRuntime(1+i%3, 0)
		}
		if i%50 == 0 {
			li.Compact()
		}
	}
	close(stopq)
	wg.Wait()
	li.Compact()
	li.Close()

	cold := s.coldEquivalent(pool.Dim(), Cosine, cfg, opts)
	s.checkEquivalent(cold, s.liveQueries(nil), "post-concurrency")
}

// TestLiveDegenerate drives the mutation surface with degenerate
// inputs: typed errors, never panics, well-defined no-ops.
func TestLiveDegenerate(t *testing.T) {
	ds := smallDataset(t, 60).TfIdf().Normalize()
	li, err := NewLiveIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
		Options{Algorithm: LSH, Threshold: 0.7}, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Out-of-range feature: rejected with the typed error, nothing
	// ingested.
	if _, err := li.Add(NewVec(map[uint32]float64{uint32(ds.Dim()): 1})); !errors.Is(err, ErrVecOutOfRange) {
		t.Fatalf("Add(out-of-range) = %v, want ErrVecOutOfRange", err)
	}
	if li.Stats().Delta != 0 {
		t.Fatal("rejected Add left a delta entry")
	}

	// Empty vector: a legal corpus member, invisible to queries.
	id, err := li.Add(NewVec(nil))
	if err != nil {
		t.Fatalf("Add(empty): %v", err)
	}
	if ms, err := li.Query(ds.Vector(0), QueryOptions{}); err != nil {
		t.Fatal(err)
	} else {
		for _, m := range ms {
			if m.ID == id {
				t.Fatal("empty vector matched a query")
			}
		}
	}

	// An AllPairs cosine index applies the offline build's input
	// validation at ingest, so merges cannot fail on a served vector.
	ap, err := NewLiveIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
		Options{Algorithm: AllPairs, Threshold: 0.7}, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Add(NewVec(map[uint32]float64{1: 2, 2: 3})); !errors.Is(err, ErrVecNotNormalized) {
		t.Fatalf("Add(unnormalized) into AllPairs index = %v, want ErrVecNotNormalized", err)
	}
	if _, err := ap.Add(ds.Vector(2)); err != nil {
		t.Fatalf("Add(normalized) into AllPairs index: %v", err)
	}
	if err := ap.Compact(); err != nil {
		t.Fatalf("Compact after valid ingest: %v", err)
	}
	if st := ap.Stats(); st.LastMergeErr != nil {
		t.Fatalf("LastMergeErr after clean merge: %v", st.LastMergeErr)
	}
	ap.Close()

	// Delete: unknown, repeated and out-of-range ids report absent.
	if li.Delete(-1) || li.Delete(1<<30) {
		t.Fatal("Delete of never-issued id reported present")
	}
	if !li.Delete(id) {
		t.Fatal("Delete of live id reported absent")
	}
	if li.Delete(id) {
		t.Fatal("double Delete reported present")
	}

	// TopK beyond the corpus size is clamped, not an error.
	if ms, err := li.TopK(ds.Vector(0), 10*ds.Len()); err != nil || len(ms) > ds.Len() {
		t.Fatalf("TopK(k>Len) = %d matches, err %v", len(ms), err)
	}
	// Empty batch: empty result, no error.
	if out, err := li.QueryBatch(nil, QueryOptions{}); err != nil || len(out) != 0 {
		t.Fatalf("QueryBatch(nil) = %v, %v", out, err)
	}

	// Close: mutations refused, queries still served.
	li.Close()
	li.Close() // idempotent
	if _, err := li.Add(ds.Vector(1)); !errors.Is(err, ErrLiveClosed) {
		t.Fatalf("Add after Close = %v, want ErrLiveClosed", err)
	}
	if li.Delete(0) {
		t.Fatal("Delete after Close reported present")
	}
	if _, err := li.Query(ds.Vector(0), QueryOptions{}); err != nil {
		t.Fatalf("Query after Close: %v", err)
	}
}

// TestLiveDeleteAll deletes every vector: queries must return empty
// results (there is no cold equivalent to compare — an empty corpus
// has no index), merges must cope, and ingest must resume cleanly.
func TestLiveDeleteAll(t *testing.T) {
	ds := smallDataset(t, 20).Binarize()
	li, err := NewLiveIndex(ds, Jaccard, EngineConfig{Seed: 8},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.4}, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	for i := 0; i < 20; i++ {
		if !li.Delete(i) {
			t.Fatalf("Delete(%d) reported absent", i)
		}
	}
	if got := li.Len(); got != 0 {
		t.Fatalf("Len after delete-all = %d", got)
	}
	if ms, err := li.Query(ds.Vector(3), QueryOptions{}); err != nil || len(ms) != 0 {
		t.Fatalf("Query over empty corpus = %v, %v", ms, err)
	}
	li.Compact() // must not rebuild over an empty corpus, must not hang
	if id, err := li.Add(ds.Vector(3)); err != nil || id != 20 {
		t.Fatalf("Add after delete-all = %d, %v (want id 20)", id, err)
	}
	ms, err := li.Query(ds.Vector(3), QueryOptions{})
	if err != nil || len(ms) != 1 || ms[0].ID != 20 || ms[0].Sim != 1 {
		t.Fatalf("Query after resume = %v, %v, want the re-added vector", ms, err)
	}
}
