package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"bayeslsh/internal/lshindex"
)

// bandCacheCases are the banded pipelines an engine's kept banding
// serves: cosine with and without multi-probe (fused row phase),
// Jaccard BayesLSH over full minhashes (candidates materialized for the
// prior) and over 1-bit minhashes (fused), each with the thresholds of
// a sweep, widest banding last.
var bandCacheCases = []struct {
	measure    Measure
	opts       Options
	thresholds []float64
}{
	{Cosine, Options{Algorithm: LSHBayesLSH}, []float64{0.9, 0.8, 0.7, 0.6}},
	{Cosine, Options{Algorithm: LSHBayesLSH, MultiProbe: true}, []float64{0.9, 0.8, 0.7, 0.6}},
	{Jaccard, Options{Algorithm: LSHBayesLSH}, []float64{0.8, 0.7, 0.6, 0.5}},
	{Jaccard, Options{Algorithm: LSHBayesLSH, OneBitMinhash: true}, []float64{0.8, 0.7, 0.6, 0.5}},
}

// keptBanding returns the banding e keeps for o's band key, or nil.
func keptBanding(t *testing.T, e *Engine, o Options) *lshindex.Banding {
	t.Helper()
	o.Threshold = 0.5 // the key does not depend on it
	o, err := o.withDefaults(e.sigs)
	if err != nil {
		t.Fatal(err)
	}
	e.bands.mu.Lock()
	defer e.bands.mu.Unlock()
	return e.bands.kept[bandKey{k: o.BandK, multiProbe: e.sigs.multiProbe(o)}]
}

// tablesAt returns the band count a search with o at threshold th
// bands on e.
func tablesAt(t *testing.T, e *Engine, o Options, th float64) int {
	t.Helper()
	o.Threshold = th
	o, err := o.withDefaults(e.sigs)
	if err != nil {
		t.Fatal(err)
	}
	_, l, _ := e.lshShape(o)
	return l
}

// TestSweepOrderReusesBands: one engine searched in any threshold order
// — ascending, descending, shuffled, repeated — returns at every
// threshold exactly what a fresh engine returns there, while keeping
// one banding per band key, as wide as the widest search so far.
func TestSweepOrderReusesBands(t *testing.T) {
	for _, tc := range bandCacheCases {
		name := fmt.Sprintf("%v/multiprobe=%v/onebit=%v", tc.measure, tc.opts.MultiProbe, tc.opts.OneBitMinhash)
		t.Run(name, func(t *testing.T) {
			at := func(th float64) Options {
				o := tc.opts
				o.Threshold = th
				return o
			}
			want := map[float64]*Output{}
			for _, th := range tc.thresholds {
				want[th] = searchWith(t, tc.measure, at(th), 2, 0)
			}
			ts := tc.thresholds
			orders := map[string][]float64{
				"widest last":  ts,
				"widest first": {ts[3], ts[2], ts[1], ts[0]},
				"shuffled":     {ts[1], ts[3], ts[0], ts[2]},
				"repeated":     {ts[2], ts[2], ts[0], ts[3], ts[3], ts[1], ts[2]},
			}
			for order, seq := range orders {
				e := newParallelEngine(t, tc.measure, 2, 0)
				widest := 0
				for _, th := range seq {
					got, err := e.Search(at(th))
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, want[th], got)
					widest = max(widest, tablesAt(t, e, tc.opts, th))
					if b := keptBanding(t, e, tc.opts); b == nil || b.Tables() != widest {
						t.Fatalf("%s: after t=%v the engine keeps %v, want a banding of %d tables", order, th, b, widest)
					}
					if n := len(e.bands.kept); n != 1 {
						t.Fatalf("%s: the engine keeps %d bandings, want 1", order, n)
					}
				}
			}
		})
	}
}

// filledCtx reports itself canceled once the signature store's
// watermark reaches depth: a search under it fills the signatures for
// its banding and is canceled as its band phase starts.
type filledCtx struct {
	context.Context
	e     *Engine
	depth int
}

func (c filledCtx) Err() error {
	if bitStore(c.e).Watermark() >= c.depth {
		return context.Canceled
	}
	return nil
}

// TestCanceledBandPhaseKeepsBanding: a search canceled in its band
// phase leaves the engine's kept banding as it was, and a later
// search at that threshold bands again and answers as a fresh engine.
func TestCanceledBandPhaseKeepsBanding(t *testing.T) {
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.8}
	e := newParallelEngine(t, Cosine, 2, 0)
	if _, err := e.Search(opts); err != nil {
		t.Fatal(err)
	}
	kept := keptBanding(t, e, opts)
	if kept == nil {
		t.Fatal("no banding kept after a search")
	}
	wide := opts
	wide.Threshold = 0.6
	k, l := 8, tablesAt(t, e, wide, 0.6)
	if l <= kept.Tables() {
		t.Fatalf("t=0.6 bands %d tables, no more than t=0.8's %d", l, kept.Tables())
	}
	_, err := e.SearchContext(filledCtx{context.Background(), e, k * l}, wide)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("search returned %v, want a cancellation", err)
	}
	if got := bitStore(e).Watermark(); got < k*l {
		t.Fatalf("canceled before the band phase: signatures filled to %d bits, banding needs %d", got, k*l)
	}
	if got := keptBanding(t, e, opts); got != kept {
		t.Fatalf("canceled band phase replaced the kept banding (%d tables) with %v", kept.Tables(), got)
	}
	got, err := e.Search(wide)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, searchWith(t, Cosine, wide, 2, 0), got)
	if b := keptBanding(t, e, opts); b == nil || b.Tables() != l {
		t.Fatalf("after the repeated search the engine keeps %v, want %d tables", b, l)
	}
}

// TestConcurrentFirstBuilds: searches racing on an engine that keeps no
// banding yet may each build one; every result equals a fresh engine's,
// and the widest banding is the one kept.
func TestConcurrentFirstBuilds(t *testing.T) {
	thresholds := []float64{0.6, 0.7, 0.6, 0.8}
	opts := func(th float64) Options { return Options{Algorithm: LSHBayesLSH, Threshold: th} }
	e := newParallelEngine(t, Cosine, 2, 0)
	bitStore(e) // the store is built once; its fills are safe to race
	got := make([]*Output, len(thresholds))
	var wg sync.WaitGroup
	for i, th := range thresholds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := e.Search(opts(th))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = out
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, th := range thresholds {
		requireIdentical(t, searchWith(t, Cosine, opts(th), 2, 0), got[i])
	}
	if b, l := keptBanding(t, e, opts(0.6)), tablesAt(t, e, opts(0.6), 0.6); b == nil || b.Tables() != l {
		t.Fatalf("the engine keeps %v, want the widest banding, %d tables", b, l)
	}
}

// TestFalseNegativeBound: Output.FalseNegativeBound is the miss rate of
// the tables banded at the threshold — within ε where the signature
// budget fits the planned table count, above it where the budget cut
// the count (default cosine at t = 0.2 needs more than 2048/8 bands),
// and 0 for a pipeline that does not band.
func TestFalseNegativeBound(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	e, err := NewEngine(ds, Cosine, EngineConfig{Seed: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.03
	for _, c := range []struct {
		alg    Algorithm
		th     float64
		capped bool
	}{{LSH, 0.7, false}, {LSHBayesLSH, 0.7, false}, {LSH, 0.2, true}} {
		out, err := e.Search(Options{Algorithm: c.alg, Threshold: c.th})
		if err != nil {
			t.Fatal(err)
		}
		if b := out.FalseNegativeBound; b <= 0 || c.capped != (b > eps) {
			t.Errorf("%v at t=%v: FalseNegativeBound %v, want in (0, %v] unless capped (%v)", c.alg, c.th, b, eps, c.capped)
		}
	}
	out, err := e.Search(Options{Algorithm: AllPairsBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if out.FalseNegativeBound != 0 {
		t.Errorf("AllPairs reports FalseNegativeBound %v, want 0", out.FalseNegativeBound)
	}
}
