package bayeslsh

import (
	"errors"
	"testing"
)

// TestDegenerateDatasets covers the typed errors of construction over
// nothing: nil and zero-length datasets must fail with
// ErrEmptyDataset from every entry point, never panic.
func TestDegenerateDatasets(t *testing.T) {
	cases := []struct {
		name string
		ds   *Dataset
	}{
		{"nil", nil},
		{"zero-length", NewDataset(10)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewEngine(c.ds, Cosine, EngineConfig{Seed: 1}); !errors.Is(err, ErrEmptyDataset) {
				t.Fatalf("NewEngine: %v, want ErrEmptyDataset", err)
			}
			if _, err := NewIndex(c.ds, Cosine, EngineConfig{Seed: 1},
				Options{Algorithm: LSH, Threshold: 0.7}); !errors.Is(err, ErrEmptyDataset) {
				t.Fatalf("NewIndex: %v, want ErrEmptyDataset", err)
			}
		})
	}
}

// TestDegenerateQueries drives every public query entry point of
// Index and LiveIndex with empty and degenerate inputs across the
// candidate sources: empty results where that is the semantics, typed
// errors otherwise, and never a panic.
func TestDegenerateQueries(t *testing.T) {
	ds := smallDataset(t, 100).TfIdf().Normalize()
	for _, alg := range []Algorithm{BruteForce, AllPairs, LSH, LSHBayesLSH, AllPairsBayesLSHLite} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
				Options{Algorithm: alg, Threshold: 0.7})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range querySurfaces(t, ix, 0, 1, 2) {
				t.Run(s.name, func(t *testing.T) {
					checkDegenerateQueries(t, s.q, ds)
				})
			}
		})
	}
}

// checkDegenerateQueries asserts the degenerate-input contract of one
// query surface over ds.
func checkDegenerateQueries(t *testing.T, ix querySurface, ds *Dataset) {
	t.Helper()
	empties := []struct {
		name string
		q    Vec
	}{
		{"NewVec(nil)", NewVec(nil)},
		{"NewVec(empty map)", NewVec(map[uint32]float64{})},
		{"NewVec(zero weights)", NewVec(map[uint32]float64{3: 0})},
		{"NewSetVec(nil)", NewSetVec(nil)},
		{"zero Vec", Vec{}},
	}
	for _, e := range empties {
		if e.q.Len() != 0 {
			t.Fatalf("%s: Len = %d, want 0", e.name, e.q.Len())
		}
		if ms, err := ix.Query(e.q, QueryOptions{}); err != nil || len(ms) != 0 {
			t.Fatalf("%s: Query = %v, %v; want empty, nil", e.name, ms, err)
		}
		if ms, err := ix.TopK(e.q, 3); err != nil || len(ms) != 0 {
			t.Fatalf("%s: TopK = %v, %v; want empty, nil", e.name, ms, err)
		}
	}

	for _, k := range []int{0, -1, -100} {
		if _, err := ix.TopK(ds.Vector(0), k); !errors.Is(err, ErrBadK) {
			t.Fatalf("TopK(%d): %v, want ErrBadK", k, err)
		}
	}

	// A batch mixing real, empty and out-of-vocabulary queries:
	// per-slot semantics, no cross-contamination.
	oov := NewVec(map[uint32]float64{uint32(ds.Dim()) + 5: 1})
	got, err := ix.QueryBatch([]Vec{ds.Vector(0), NewVec(nil), oov}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("batch returned %d results", len(got))
	}
	if len(got[0]) == 0 {
		t.Fatal("self query found nothing")
	}
	if len(got[1]) != 0 || len(got[2]) != 0 {
		t.Fatalf("empty/OOV queries matched: %v, %v", got[1], got[2])
	}

	// Zero-length batches are fine too.
	if got, err := ix.QueryBatch(nil, QueryOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("nil batch: %v, %v", got, err)
	}
}

// TestQueryClampedInputs pins the well-defined degenerate results of
// the query surface: an empty batch returns an empty (non-nil) result
// with no error, and TopK with k at or beyond the corpus size clamps
// to "everything qualifying" — never a panic, never an error, for
// both candidate sources.
func TestQueryClampedInputs(t *testing.T) {
	ds := smallDataset(t, 80).TfIdf().Normalize()
	for _, alg := range []Algorithm{BruteForce, LSH, AllPairsBayesLSH} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
				Options{Algorithm: alg, Threshold: 0.7})
			if err != nil {
				t.Fatal(err)
			}
			batches := []struct {
				name    string
				queries []Vec
			}{
				{"nil slice", nil},
				{"empty slice", []Vec{}},
				{"all-empty queries", []Vec{{}, {}}},
			}
			for _, b := range batches {
				got, err := ix.QueryBatch(b.queries, QueryOptions{})
				if err != nil {
					t.Fatalf("QueryBatch(%s): %v", b.name, err)
				}
				if got == nil || len(got) != len(b.queries) {
					t.Fatalf("QueryBatch(%s) = %v, want %d empty result slots", b.name, got, len(b.queries))
				}
			}
			ks := []struct {
				name string
				k    int
			}{
				{"k == Len", ds.Len()},
				{"k == Len+1", ds.Len() + 1},
				{"k huge", 1 << 30},
			}
			for _, c := range ks {
				got, err := ix.TopK(ds.Vector(0), c.k)
				if err != nil {
					t.Fatalf("TopK(%s): %v", c.name, err)
				}
				if len(got) > ds.Len() {
					t.Fatalf("TopK(%s) returned %d matches over a %d-vector corpus", c.name, len(got), ds.Len())
				}
				for _, m := range got {
					if m.Sim < ix.Threshold() {
						t.Fatalf("TopK(%s) leaked sub-threshold match %+v", c.name, m)
					}
				}
			}
		})
	}
}
