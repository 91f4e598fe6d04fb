package bayeslsh

import (
	"testing"

	"bayeslsh/internal/sighash"
)

// kindOf returns the signature kind measure m picks, with no engine
// behind it: enough for its option defaults.
func kindOf(t testing.TB, m Measure) sigKind {
	t.Helper()
	k, _, err := newSigKind(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// bitStore returns the hyperplane signature store of a cosine-measure
// engine, building it on first use.
func bitStore(e *Engine) *sighash.Store { return e.sigs.(*bitKind).store() }

func TestOptionsDefaultsPerMeasure(t *testing.T) {
	oc, err := Options{Threshold: 0.7}.withDefaults(kindOf(t, Cosine))
	if err != nil {
		t.Fatal(err)
	}
	if oc.Epsilon != 0.03 || oc.Delta != 0.05 || oc.Gamma != 0.03 {
		t.Errorf("cosine quality defaults: %+v", oc)
	}
	if oc.K != 32 || oc.LiteHashes != 128 || oc.MaxHashes != 2048 ||
		oc.BandK != 8 || oc.ApproxHashes != 2048 {
		t.Errorf("cosine hash defaults: %+v", oc)
	}
	if oc.FalseNegativeRate != oc.Epsilon {
		t.Errorf("fn rate should default to epsilon: %+v", oc)
	}
	oj, err := Options{Threshold: 0.5}.withDefaults(kindOf(t, Jaccard))
	if err != nil {
		t.Fatal(err)
	}
	if oj.LiteHashes != 64 || oj.MaxHashes != 512 || oj.BandK != 3 || oj.ApproxHashes != 360 {
		t.Errorf("jaccard hash defaults: %+v", oj)
	}
}

func TestOptionsExplicitValuesKept(t *testing.T) {
	o, err := Options{
		Threshold: 0.6, Epsilon: 0.01, Delta: 0.02, Gamma: 0.04,
		K: 64, LiteHashes: 256, MaxHashes: 1024, BandK: 16,
		FalseNegativeRate: 0.1, ApproxHashes: 100, PriorSample: 5,
	}.withDefaults(kindOf(t, Cosine))
	if err != nil {
		t.Fatal(err)
	}
	if o.Epsilon != 0.01 || o.K != 64 || o.LiteHashes != 256 || o.MaxHashes != 1024 ||
		o.BandK != 16 || o.FalseNegativeRate != 0.1 || o.ApproxHashes != 100 || o.PriorSample != 5 {
		t.Errorf("explicit options overwritten: %+v", o)
	}
}

func TestSearchWithCustomBandK(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := eng.Search(Options{Algorithm: AllPairs, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// k is held to values whose table count l = ⌈log ε/log(1−r^k)⌉
	// fits the default 2048-bit signature budget at t=0.7; larger k
	// would clamp l and intentionally trade recall for the budget.
	for _, bandK := range []int{4, 8, 12} {
		out, err := eng.Search(Options{Algorithm: LSH, Threshold: 0.7, BandK: bandK})
		if err != nil {
			t.Fatalf("BandK=%d: %v", bandK, err)
		}
		if rec := recallOf(out.Results, truth.Results); rec < 0.9 {
			t.Errorf("BandK=%d: recall %v", bandK, rec)
		}
	}
}

func TestSearchBandBudgetClamped(t *testing.T) {
	// A tiny signature budget forces the table count to clamp; the
	// search must still run (with reduced recall guarantees) rather
	// than error out.
	ds := smallDataset(t, 150).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 16, SignatureBits: 128})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Search(Options{Algorithm: LSH, Threshold: 0.5, MaxHashes: 128, ApproxHashes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if out.Candidates == 0 {
		t.Error("clamped search generated no candidates at all")
	}
}

func TestApproxHashesClampedToBudget(t *testing.T) {
	ds := smallDataset(t, 150).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 17, SignatureBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	// ApproxHashes defaults to 2048 > budget 256; must clamp, not panic.
	out, err := eng.Search(Options{Algorithm: LSHApprox, Threshold: 0.7, MaxHashes: 256})
	if err != nil {
		t.Fatal(err)
	}
	_ = out
}

func TestMultiProbeOption(t *testing.T) {
	ds := smallDataset(t, 300).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	th := 0.7
	truth, err := eng.Search(Options{Algorithm: AllPairs, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Search(Options{Algorithm: LSHBayesLSHLite, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := eng.Search(Options{Algorithm: LSHBayesLSHLite, Threshold: th, MultiProbe: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf(mp.Results, truth.Results); rec < 0.9 {
		t.Errorf("multi-probe recall %v", rec)
	}
	// The point of multi-probing: matching recall from fewer tables,
	// i.e. fewer signature bits consumed by candidate generation.
	if plain.Candidates == 0 || mp.Candidates == 0 {
		t.Fatalf("candidate counts: plain %d, multiprobe %d", plain.Candidates, mp.Candidates)
	}
}

func TestMeasureAccessor(t *testing.T) {
	ds := smallDataset(t, 50)
	eng, err := NewEngine(ds, BinaryCosine, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Measure() != BinaryCosine {
		t.Errorf("Measure() = %v", eng.Measure())
	}
}
