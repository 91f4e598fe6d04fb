package bayeslsh

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// testDataset builds a small weighted corpus with planted similar
// pairs through the public API only.
func testDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Synthetic("RCV1-sim")
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// smallDataset trims the synthetic corpus for brute-force comparison.
func smallDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	full := testDataset(t)
	ds := NewDataset(full.Dim())
	var buf bytes.Buffer
	if _, err := full.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ds.c.Vecs = reread.c.Vecs[:n]
	return ds
}

func keyset(rs []Result) map[[2]int]float64 {
	m := make(map[[2]int]float64, len(rs))
	for _, r := range rs {
		a, b := r.A, r.B
		if a > b {
			a, b = b, a
		}
		m[[2]int{a, b}] = r.Sim
	}
	return m
}

func recallOf(got, want []Result) float64 {
	if len(want) == 0 {
		return 1
	}
	gm := keyset(got)
	hit := 0
	for k := range keyset(want) {
		if _, ok := gm[k]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestDatasetBuilderRoundTrip(t *testing.T) {
	ds := NewDataset(10)
	id0 := ds.Add(map[uint32]float64{1: 2, 3: 1})
	id1 := ds.AddSet([]uint32{1, 3, 5})
	if id0 != 0 || id1 != 1 || ds.Len() != 2 {
		t.Fatalf("builder ids: %d %d len %d", id0, id1, ds.Len())
	}
	if ds.VectorLen(1) != 3 {
		t.Errorf("VectorLen = %d", ds.VectorLen(1))
	}
	if got := ds.Similarity(Jaccard, 0, 1); got != 2.0/3 {
		t.Errorf("Jaccard = %v", got)
	}
	st := ds.Stats()
	if st.Vectors != 2 || st.Dim != 10 || st.Nnz != 5 {
		t.Errorf("Stats = %+v", st)
	}
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Similarity(Jaccard, 0, 1) != 2.0/3 {
		t.Error("round trip changed the dataset")
	}
}

func TestSyntheticNamesAndErrors(t *testing.T) {
	names := SyntheticNames()
	if len(names) != 6 {
		t.Fatalf("expected 6 synthetic corpora, got %v", names)
	}
	if _, err := Synthetic("no-such-corpus"); err == nil {
		t.Error("unknown synthetic name accepted")
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	if _, err := NewEngine(nil, Cosine, EngineConfig{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewEngine(NewDataset(5), Cosine, EngineConfig{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewEngine(NewDataset(5), Measure(9), EngineConfig{}); err == nil {
		t.Error("unknown measure accepted")
	}
	ds := NewDataset(5)
	ds.AddSet([]uint32{1})
	eng, err := NewEngine(ds, Cosine, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(Options{Algorithm: AllPairs, Threshold: 0}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := eng.Search(Options{Algorithm: Algorithm(42), Threshold: 0.5}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := eng.Search(Options{Algorithm: PPJoin, Threshold: 0.5}); err == nil {
		t.Error("PPJoin accepted for weighted cosine")
	}
}

func TestAllAlgorithmsAgreeWithBruteForceCosine(t *testing.T) {
	ds := smallDataset(t, 400).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	th := 0.7
	truth, err := eng.Search(Options{Algorithm: BruteForce, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Results) < 10 {
		t.Fatalf("corpus too sparse: %d true pairs", len(truth.Results))
	}
	for _, alg := range Algorithms(Cosine) {
		out, err := eng.Search(Options{Algorithm: alg, Threshold: th})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		rec := recallOf(out.Results, truth.Results)
		if rec < 0.9 {
			t.Errorf("%v: recall %v (found %d of %d)", alg, rec, len(out.Results), len(truth.Results))
		}
		// Exact pipelines must agree perfectly.
		if alg == AllPairs {
			if rec != 1 || len(out.Results) != len(truth.Results) {
				t.Errorf("AllPairs not exact: %d vs %d pairs", len(out.Results), len(truth.Results))
			}
		}
	}
}

func TestAllAlgorithmsAgreeWithBruteForceJaccard(t *testing.T) {
	ds := smallDataset(t, 400).Binarize()
	eng, err := NewEngine(ds, Jaccard, EngineConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	th := 0.4
	truth, err := eng.Search(Options{Algorithm: BruteForce, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Results) < 10 {
		t.Fatalf("corpus too sparse: %d true pairs", len(truth.Results))
	}
	for _, alg := range Algorithms(Jaccard) {
		out, err := eng.Search(Options{Algorithm: alg, Threshold: th})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rec := recallOf(out.Results, truth.Results); rec < 0.9 {
			t.Errorf("%v: recall %v", alg, rec)
		}
		if alg == AllPairs || alg == PPJoin {
			if len(out.Results) != len(truth.Results) {
				t.Errorf("%v not exact: %d vs %d pairs", alg, len(out.Results), len(truth.Results))
			}
		}
	}
}

func TestAllAlgorithmsAgreeWithBruteForceBinaryCosine(t *testing.T) {
	ds := smallDataset(t, 400)
	eng, err := NewEngine(ds, BinaryCosine, EngineConfig{Seed: 9, SignatureBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	th := 0.7
	truth, err := eng.Search(Options{Algorithm: BruteForce, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Results) < 10 {
		t.Fatalf("corpus too sparse: %d true pairs", len(truth.Results))
	}
	for _, alg := range Algorithms(BinaryCosine) {
		out, err := eng.Search(Options{Algorithm: alg, Threshold: th})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rec := recallOf(out.Results, truth.Results); rec < 0.9 {
			t.Errorf("%v: recall %v", alg, rec)
		}
	}
}

func TestBayesLSHEstimateAccuracy(t *testing.T) {
	ds := smallDataset(t, 400).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Search(Options{Algorithm: LSHBayesLSH, Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results")
	}
	bad := 0
	for _, r := range out.Results {
		if math.Abs(ds.Similarity(Cosine, r.A, r.B)-r.Sim) >= 0.05 {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(out.Results)); frac > 0.15 {
		t.Errorf("%v of estimates off by >= δ", frac)
	}
}

func TestLiteReportsExactSimilarities(t *testing.T) {
	ds := smallDataset(t, 300).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Search(Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		if got := ds.Similarity(Cosine, r.A, r.B); math.Abs(got-r.Sim) > 1e-12 {
			t.Fatalf("Lite similarity %v != exact %v", r.Sim, got)
		}
		if r.Sim < 0.7 {
			t.Fatalf("Lite emitted sub-threshold pair: %v", r)
		}
	}
}

func TestOutputAccounting(t *testing.T) {
	ds := smallDataset(t, 300).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Search(Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if out.Candidates <= 0 {
		t.Error("no candidates recorded")
	}
	if out.Pruned+len(out.Results) != out.Candidates {
		t.Errorf("accounting: pruned %d + results %d != candidates %d",
			out.Pruned, len(out.Results), out.Candidates)
	}
	if out.Total < out.VerifyTime || out.Total < out.CandGenTime {
		t.Errorf("total %v below its parts (%v, %v)", out.Total, out.VerifyTime, out.CandGenTime)
	}
	if len(out.SurvivorsByRound) == 0 {
		t.Error("no pruning trace recorded")
	}
	// Second search reuses cached signatures: HashTime must be zero.
	out2, err := eng.Search(Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if out2.HashTime != 0 {
		t.Errorf("second search recomputed hashes: %v", out2.HashTime)
	}
}

func TestAlgorithmsListAndStrings(t *testing.T) {
	if len(Algorithms(Cosine)) != 7 {
		t.Errorf("cosine algorithms: %v", Algorithms(Cosine))
	}
	if len(Algorithms(Jaccard)) != 8 {
		t.Errorf("jaccard algorithms: %v", Algorithms(Jaccard))
	}
	for _, a := range append(Algorithms(Jaccard), BruteForce) {
		if a.String() == "" {
			t.Errorf("algorithm %d has empty name", int(a))
		}
	}
	for _, m := range []Measure{Cosine, Jaccard, BinaryCosine, Measure(9)} {
		if m.String() == "" {
			t.Errorf("measure %d has empty name", int(m))
		}
	}
	if !AllPairsBayesLSH.UsesBayes() || AllPairs.UsesBayes() {
		t.Error("UsesBayes misclassifies")
	}
}

func TestOneBitMinhashOption(t *testing.T) {
	ds := smallDataset(t, 400).Binarize()
	eng, err := NewEngine(ds, Jaccard, EngineConfig{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	th := 0.5
	truth, err := eng.Search(Options{Algorithm: BruteForce, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Search(Options{
		Algorithm: AllPairsBayesLSH, Threshold: th, OneBitMinhash: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf(out.Results, truth.Results); rec < 0.9 {
		t.Errorf("1-bit minhash recall %v", rec)
	}
	bad := 0
	for _, r := range out.Results {
		if math.Abs(ds.Similarity(Jaccard, r.A, r.B)-r.Sim) >= 0.05 {
			bad++
		}
	}
	if len(out.Results) > 0 {
		if frac := float64(bad) / float64(len(out.Results)); frac > 0.2 {
			t.Errorf("1-bit estimates: %v off by >= δ", frac)
		}
	}
	// Lite variant works too.
	lite, err := eng.Search(Options{
		Algorithm: AllPairsBayesLSHLite, Threshold: th, OneBitMinhash: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf(lite.Results, truth.Results); rec < 0.9 {
		t.Errorf("1-bit Lite recall %v", rec)
	}
}

// TestExactProjectionsOption: exact (float64) projections are no longer
// an option, and the meta byte that recorded them is reserved. Every
// writer clears it, and InspectFile ("apss info") refuses a file that
// sets it in every format, as the loaders do (TestSnapshotErrors,
// TestDiskCorruption): such a file's rows cannot be regenerated.
func TestExactProjectionsOption(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 13, SignatureBits: 512},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7, MaxHashes: 512})
	if err != nil {
		t.Fatal(err)
	}
	metas := map[string][]byte{
		"v1": sectionOf(t, v1Bytes(t, ix), sectMeta),
		"v2": sectionOf(t, v2Bytes(t, ix), sectMeta),
		"v3": diskSectionOf(t, v3File(t, ix), sectMeta),
	}
	for v, meta := range metas {
		if meta[metaExactFlag] != 0 {
			t.Errorf("%s writer sets meta byte %d to %d, want 0", v, metaExactFlag, meta[metaExactFlag])
		}
	}

	found := false
	for _, c := range forgedSnapshots(t) {
		if c.name != forgedExactFlag {
			continue
		}
		found = true
		dir := t.TempDir()
		files := map[string]string{"v1": filepath.Join(dir, "v1.snap"), "v2": filepath.Join(dir, "v2.snap"), "v3": c.v3}
		for v, data := range map[string][]byte{"v1": c.v1, "v2": c.v2} {
			if err := os.WriteFile(files[v], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for v, path := range files {
			if _, err := InspectFile(path); !errors.Is(err, ErrSnapshotFormat) {
				t.Errorf("%s %s: InspectFile %v, want ErrSnapshotFormat", v, c.name, err)
			}
		}
	}
	if !found {
		t.Fatalf("forgedSnapshots has no %q case", forgedExactFlag)
	}
}
