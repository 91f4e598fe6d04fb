package bayeslsh

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"bayeslsh/internal/vector"
)

// parallelTestDataset prepares a trimmed corpus for the measure, as
// the pipelines expect it, once per measure: engines never modify
// their dataset, so the invariance grid shares one per measure. 1000
// vectors keep every pipeline (including BruteForce) fast enough for
// the race detector while still producing tens of thousands of
// candidates.
func parallelTestDataset(t *testing.T, m Measure) *Dataset {
	t.Helper()
	parallelDatasets.Lock()
	defer parallelDatasets.Unlock()
	if ds, ok := parallelDatasets.m[m]; ok {
		return ds
	}
	ds := smallDataset(t, 1000)
	if m == Cosine {
		ds = ds.TfIdf().Normalize()
	} else {
		ds = ds.Binarize()
	}
	parallelDatasets.m[m] = ds
	return ds
}

var parallelDatasets = struct {
	sync.Mutex
	m map[Measure]*Dataset
}{m: map[Measure]*Dataset{}}

// newParallelEngine builds an engine over the measure's test corpus
// with the given worker count (and default BatchSize unless batch > 0).
func newParallelEngine(t *testing.T, m Measure, workers, batch int) *Engine {
	t.Helper()
	eng, err := NewEngine(parallelTestDataset(t, m), m, EngineConfig{
		Seed:        42,
		Parallelism: workers,
		BatchSize:   batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// searchWith runs one search on a fresh engine with the given worker
// count (and default BatchSize unless batch > 0).
func searchWith(t *testing.T, m Measure, opts Options, workers, batch int) *Output {
	t.Helper()
	out, err := newParallelEngine(t, m, workers, batch).Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireIdentical fails unless the two outputs carry the same results
// in the same order and agree on every scheduling-independent counter.
func requireIdentical(t *testing.T, seq, par *Output) {
	t.Helper()
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("parallel found %d pairs, sequential %d", len(par.Results), len(seq.Results))
	}
	for i := range seq.Results {
		if seq.Results[i] != par.Results[i] {
			t.Fatalf("result %d: parallel %+v, sequential %+v", i, par.Results[i], seq.Results[i])
		}
	}
	if seq.Candidates != par.Candidates {
		t.Errorf("candidates: parallel %d, sequential %d", par.Candidates, seq.Candidates)
	}
	if seq.Pruned != par.Pruned {
		t.Errorf("pruned: parallel %d, sequential %d", par.Pruned, seq.Pruned)
	}
	if seq.ExactVerified != par.ExactVerified {
		t.Errorf("exact verified: parallel %d, sequential %d", par.ExactVerified, seq.ExactVerified)
	}
	if seq.HashesCompared != par.HashesCompared {
		t.Errorf("hashes compared: parallel %d, sequential %d", par.HashesCompared, seq.HashesCompared)
	}
	if len(seq.SurvivorsByRound) != len(par.SurvivorsByRound) {
		t.Fatalf("survivor rounds: parallel %d, sequential %d",
			len(par.SurvivorsByRound), len(seq.SurvivorsByRound))
	}
	for i := range seq.SurvivorsByRound {
		if seq.SurvivorsByRound[i] != par.SurvivorsByRound[i] {
			t.Errorf("survivors round %d: parallel %d, sequential %d",
				i, par.SurvivorsByRound[i], seq.SurvivorsByRound[i])
		}
	}
}

// parallelCases is the measure × threshold matrix of the invariance
// tests; Algorithms(measure) + BruteForce then covers every pipeline,
// PPJoin included for the binary measures.
var parallelCases = []struct {
	measure Measure
	t       float64
}{
	{Cosine, 0.7},
	{Jaccard, 0.5},
	{BinaryCosine, 0.7},
}

// requireInvariant runs every measure × pipeline at each workers ×
// batch setting (batch 0 = the default BatchSize) and requires output
// identical — results in order and every counter — to the one-worker,
// default-batch run. With fresh set every setting builds its own
// engine, so signature hashing is under test too; otherwise each
// setting copies the reference engine with only the runtime knobs
// changed (as Index.SetRuntime does), sharing its filled signatures.
func requireInvariant(t *testing.T, workers, batches []int, fresh bool) {
	for _, tc := range parallelCases {
		for _, alg := range append(Algorithms(tc.measure), BruteForce) {
			t.Run(fmt.Sprintf("%v/%v", tc.measure, alg), func(t *testing.T) {
				opts := Options{Algorithm: alg, Threshold: tc.t}
				ref := newParallelEngine(t, tc.measure, 1, 0)
				want, err := ref.Search(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workers {
					for _, b := range batches {
						var eng *Engine
						if fresh {
							eng = newParallelEngine(t, tc.measure, w, b)
						} else {
							own := *ref
							own.cfg.Parallelism, own.cfg.BatchSize = w, b
							own.cfg = own.cfg.withDefaults()
							eng = &own
						}
						got, err := eng.Search(opts)
						if err != nil {
							t.Fatal(err)
						}
						requireIdentical(t, want, got)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequential verifies the sharded pipeline's core
// guarantee: for a fixed Seed, every pipeline produces identical
// results (pairs, order, similarities, and cost counters) at
// Parallelism 1, 2 and 4. Search collects the streamed batches by
// slot, so this is also the gate on batch-order reassembly under
// completion-order delivery.
func TestParallelMatchesSequential(t *testing.T) {
	requireInvariant(t, []int{2, 4}, []int{0}, true)
}

// TestParallelMatchesSequentialOptions covers the option paths that
// change the verification kernel: 1-bit minhash signatures and
// multi-probe candidate generation.
func TestParallelMatchesSequentialOptions(t *testing.T) {
	t.Run("one-bit-minhash", func(t *testing.T) {
		opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.5, OneBitMinhash: true}
		requireIdentical(t,
			searchWith(t, Jaccard, opts, 1, 0),
			searchWith(t, Jaccard, opts, 4, 0))
	})
	t.Run("multi-probe", func(t *testing.T) {
		opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7, MultiProbe: true}
		requireIdentical(t,
			searchWith(t, Cosine, opts, 1, 0),
			searchWith(t, Cosine, opts, 4, 0))
	})
}

// TestCandidatesCanonicalOrder pins Engine.candidates' contract, which
// the verification phase relies on instead of sorting: every two-phase
// pipeline's candidates come out strictly ascending in (A, B) —
// deduplicated and normalized — and identical at any worker count. It
// covers banded LSH (plain, multi-probe, under 1-bit minhash) and the
// AllPairs branch.
func TestCandidatesCanonicalOrder(t *testing.T) {
	ctx := context.Background()
	twoPhase := []Algorithm{LSH, LSHApprox, AllPairsBayesLSH, AllPairsBayesLSHLite, LSHBayesLSH, LSHBayesLSHLite}
	for _, tc := range parallelCases {
		seq := newParallelEngine(t, tc.measure, 1, 0)
		par := *seq
		par.cfg.Parallelism = 3
		for _, alg := range twoPhase {
			variants := []Options{{}}
			if tc.measure == Jaccard {
				variants = append(variants, Options{OneBitMinhash: true})
			} else {
				variants = append(variants, Options{MultiProbe: true})
			}
			for _, v := range variants {
				v.Algorithm, v.Threshold = alg, tc.t
				t.Run(fmt.Sprintf("%v/%v/multiprobe=%v/onebit=%v", tc.measure, alg, v.MultiProbe, v.OneBitMinhash), func(t *testing.T) {
					o, err := v.withDefaults(tc.measure)
					if err != nil {
						t.Fatal(err)
					}
					want, err := seq.candidates(ctx, o, false)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 {
						t.Fatal("no candidates; the corpus exercises nothing")
					}
					for i, p := range want {
						if p.A >= p.B || i > 0 && want[i-1].Key() >= p.Key() {
							t.Fatalf("candidate %d = %+v after %+v: not strictly ascending", i, p, want[max(i-1, 0)])
						}
					}
					got, err := par.candidates(ctx, o, false)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("3 workers: %d candidates differ from 1 worker's %d", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestParallelBatchSizeInvariance verifies that the verification batch
// size never changes results, only scheduling granularity, at every
// worker count. Hashing under parallelism is covered above, so the
// settings share the reference engine's signatures.
func TestParallelBatchSizeInvariance(t *testing.T) {
	requireInvariant(t, []int{1, 2, 4}, []int{1, 7, 64}, false)
}

// TestConcurrentSweep runs the four-threshold sweep on one warm engine
// from four goroutines at once, each in its own order, so the searches
// race to build and read the interned decision tables (one accept table
// for all four thresholds); every Output must equal the sequential run
// of the same threshold on a fresh engine. A live index then interleaves
// queries with Adds: each delta verifier reuses the base's tables, and
// each concurrent query must return the sequential final answer
// restricted to the vectors it could see.
func TestConcurrentSweep(t *testing.T) {
	thresholds := []float64{0.9, 0.8, 0.7, 0.6}
	// δ and γ no other test uses, so the concurrent searches are the
	// first in the process to need these tables.
	opts := func(th float64) Options {
		return Options{Algorithm: LSHBayesLSH, Threshold: th, Delta: 0.045, Gamma: 0.035}
	}
	eng := newParallelEngine(t, Cosine, 2, 0)
	if _, err := eng.Search(Options{Algorithm: LSH, Threshold: 0.6}); err != nil { // warms the signatures only
		t.Fatal(err)
	}
	got := make([][]*Output, 4)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*Output, len(thresholds))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range thresholds {
				j := (i + g) % len(thresholds)
				out, err := eng.Search(opts(thresholds[j]))
				if err != nil {
					t.Error(err)
					return
				}
				got[g][j] = out
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for j, th := range thresholds {
		want := searchWith(t, Cosine, opts(th), 1, 0)
		for g := range got {
			requireIdentical(t, want, got[g][j])
		}
	}

	const seedN, poolN = 300, 400
	pool := parallelTestDataset(t, Cosine)
	seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
	li, err := NewLiveIndex(seed, Cosine, EngineConfig{Seed: 42, Parallelism: 2}, opts(0.7), LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	type seen struct {
		q       int
		matches []Match
	}
	var mu sync.Mutex
	var log []seen
	done := make(chan struct{})
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := seedN + (g*37+i)%(poolN-seedN)
				ms, err := li.Query(pool.Vector(q), QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				log = append(log, seen{q, ms})
				mu.Unlock()
			}
		}()
	}
	for i := seedN; i < poolN; i++ {
		if _, err := li.Add(pool.Vector(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for _, s := range log {
		final, err := li.Query(pool.Vector(s.q), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Delta ids are assigned in Add order, so a query that saw k
		// Adds returns the final matches with ids below seedN+k: those
		// at most its own largest id.
		last := seedN - 1
		for _, m := range s.matches {
			last = max(last, m.ID)
		}
		var want []Match
		for _, m := range final {
			if m.ID <= last {
				want = append(want, m)
			}
		}
		requireSameMatchList(t, s.matches, want)
	}
	if len(log) == 0 {
		t.Fatal("no query ran beside the Adds")
	}
}
