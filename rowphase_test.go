package bayeslsh

import (
	"runtime"
	"testing"
)

// TestLSHSearchAllocatesLessThanItsCandidates pins that banded-LSH
// verification runs inside the row phase, with no candidate slice: on
// a warm engine, where hashing is already paid, one cosine LSHBayesLSH
// search over the RCV1-shaped corpus at t = 0.6 must allocate fewer
// bytes in total than the candidate pairs alone would occupy
// (Candidates × 8 bytes). The join is chosen so candidates outnumber
// results by more than 100×, as in the paper's low-threshold regime.
func TestLSHSearchAllocatesLessThanItsCandidates(t *testing.T) {
	ds := testDataset(t).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 42, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.6}
	if _, err := eng.Search(opts); err != nil { // warm the signatures
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := eng.Search(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.Candidates < 100*len(out.Results) {
		t.Fatalf("%d candidates for %d results: the join does not exercise the low-threshold regime", out.Candidates, len(out.Results))
	}
	alloc, pairs := after.TotalAlloc-before.TotalAlloc, uint64(out.Candidates)*8
	if alloc >= pairs {
		t.Errorf("search allocated %d bytes, not below the %d bytes of its %d candidate pairs", alloc, pairs, out.Candidates)
	}
	t.Logf("allocated %d bytes for %d candidates (%d results)", alloc, out.Candidates, len(out.Results))
}
