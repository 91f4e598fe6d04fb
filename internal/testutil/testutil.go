// Package testutil provides shared helpers for the integration tests
// of the candidate-generation and verification packages: small random
// corpora with planted similar pairs, comparisons of result sets
// against the brute-force oracle, and the cancellation-test fixtures.
package testutil

import (
	"context"
	"runtime"
	"testing"
	"time"

	"bayeslsh/internal/dataset"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/vector"
)

// SmallTextCorpus generates a compact weighted text corpus with
// planted near-duplicates, Tf-Idf weighted and unit-normalized.
func SmallTextCorpus(t *testing.T, n int, seed uint64) *vector.Collection {
	t.Helper()
	c, err := dataset.Generate(dataset.Spec{
		Name: "test-text", Kind: dataset.Text,
		N: n, Dim: 2000, AvgLen: 30, ZipfS: 1.05,
		ClusterFrac: 0.4, ClusterSize: 3, MutationRate: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.TfIdf().Normalize()
}

// SmallBinaryCorpus generates a compact binary corpus (sets) with
// planted overlapping groups.
func SmallBinaryCorpus(t *testing.T, n int, seed uint64) *vector.Collection {
	t.Helper()
	c, err := dataset.Generate(dataset.Spec{
		Name: "test-bin", Kind: dataset.Text,
		N: n, Dim: 1500, AvgLen: 25, ZipfS: 0.9,
		ClusterFrac: 0.4, ClusterSize: 3, MutationRate: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Binarize()
}

// ResultKeySet converts results to a set of pair keys.
func ResultKeySet(rs []pair.Result) map[uint64]float64 {
	m := make(map[uint64]float64, len(rs))
	for _, r := range rs {
		m[r.Pair().Key()] = r.Sim
	}
	return m
}

// PairKeySet converts pairs to a key set.
func PairKeySet(ps []pair.Pair) map[uint64]struct{} {
	m := make(map[uint64]struct{}, len(ps))
	for _, p := range ps {
		m[p.Key()] = struct{}{}
	}
	return m
}

// RequireSameResults fails the test unless got and want contain the
// same pairs with similarities within tol.
func RequireSameResults(t *testing.T, got, want []pair.Result, tol float64) {
	t.Helper()
	gm, wm := ResultKeySet(got), ResultKeySet(want)
	for k, ws := range wm {
		gs, ok := gm[k]
		if !ok {
			t.Fatalf("missing pair %d:%d (sim %v)", k>>32, uint32(k), ws)
		}
		if diff := gs - ws; diff > tol || diff < -tol {
			t.Fatalf("pair %d:%d sim %v, want %v", k>>32, uint32(k), gs, ws)
		}
	}
	for k, gs := range gm {
		if _, ok := wm[k]; !ok {
			t.Fatalf("extra pair %d:%d (sim %v)", k>>32, uint32(k), gs)
		}
	}
}

// RequireSameSequence fails the test unless got equals want element
// for element, order included — the guarantee of the sharded scans
// whose output is reassembled in input order.
func RequireSameSequence[T comparable](t *testing.T, label string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// Recall returns |got ∩ want| / |want| over result pairs; 1 if want is
// empty.
func Recall(got, want []pair.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	gm := ResultKeySet(got)
	hit := 0
	for _, w := range want {
		if _, ok := gm[w.Pair().Key()]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// Contexts returns the two kinds of context that never end during a
// test — one that cannot be canceled and one that could be but is only
// canceled at cleanup. Every sharded operation must give the same
// output under both.
func Contexts(t *testing.T) map[string]context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return map[string]context.Context{"background": context.Background(), "cancelable": ctx}
}

// RequireNoGoroutineLeak polls until the goroutine count returns to
// the baseline recorded before the call under test, dumping all stacks
// on timeout. (Counts can transiently exceed the baseline while
// canceled workers drain; they must settle.)
func RequireNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
