package bayeslsh_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"bayeslsh"
	"bayeslsh/internal/harness"
	"bayeslsh/internal/planner"
)

// The AutoPipeline acceptance suite: the planner's enum mirror stays
// in lockstep with the root package, an auto-planned search or index
// is bit-identical to one configured explicitly with the pipeline the
// planner chose — per measure × corpus profile — and the collected
// corpus statistics survive every snapshot format.

// planCell is one measure × threshold cell of the planner matrix.
var planCells = []struct {
	measure   bayeslsh.Measure
	threshold float64
}{
	{bayeslsh.Cosine, 0.6},
	{bayeslsh.Jaccard, 0.5},
	{bayeslsh.BinaryCosine, 0.6},
}

// TestPlannerEnumsMirror pins the value-for-value mirror between the
// root enums and internal/planner's: the planner package cannot
// import the root (the root imports it), so it redeclares Measure and
// Pipeline — this test is what makes that duplication safe to evolve.
func TestPlannerEnumsMirror(t *testing.T) {
	for a := bayeslsh.BruteForce; a <= bayeslsh.PPJoin; a++ {
		if got, want := planner.Pipeline(a).String(), a.String(); got != want {
			t.Errorf("planner.Pipeline(%d) = %q, root Algorithm %q", int(a), got, want)
		}
	}
	for m := bayeslsh.Cosine; m <= bayeslsh.BinaryCosine; m++ {
		if got, want := planner.Measure(m).String(), m.String(); got != want {
			t.Errorf("planner.Measure(%d) = %q, root Measure %q", int(m), got, want)
		}
	}
}

// resultsEqual compares self-join outputs exactly: same pairs in the
// same order with float64-identical similarities — the determinism
// contract two engines built from the same dataset and seed share.
func resultsEqual(a, b []bayeslsh.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAutoPipelineBitIdentical is the tentpole acceptance matrix:
// for every corpus profile × measure, a search with AutoPipeline set
// returns byte-for-byte what an explicitly-configured search with the
// planner's chosen pipeline returns, and Output.Algorithm reports the
// choice.
func TestAutoPipelineBitIdentical(t *testing.T) {
	for _, p := range harness.Profiles() {
		for _, cell := range planCells {
			t.Run(fmt.Sprintf("%s/%v", p.Name, cell.measure), func(t *testing.T) {
				ds := harness.ProfileDataset(t, p, cell.measure)
				plan := bayeslsh.ChoosePlan(ds.CorpusStats(), bayeslsh.PlanQuery{
					Measure: cell.measure, Threshold: cell.threshold,
				})
				if len(plan.Rules) == 0 {
					t.Fatal("ChoosePlan returned no rules")
				}
				chosen := bayeslsh.Algorithm(plan.Pipeline)

				cfg := bayeslsh.EngineConfig{Seed: 7, Parallelism: 2}
				engAuto, err := bayeslsh.NewEngine(ds, cell.measure, cfg)
				if err != nil {
					t.Fatal(err)
				}
				engExp, err := bayeslsh.NewEngine(ds, cell.measure, cfg)
				if err != nil {
					t.Fatal(err)
				}

				outAuto, err := engAuto.Search(bayeslsh.Options{
					AutoPipeline: true, Threshold: cell.threshold,
				})
				if err != nil {
					t.Fatalf("auto search: %v", err)
				}
				if outAuto.Algorithm != chosen {
					t.Fatalf("auto search ran %v, ChoosePlan says %v", outAuto.Algorithm, chosen)
				}
				outExp, err := engExp.Search(bayeslsh.Options{
					Algorithm: chosen, Threshold: cell.threshold,
				})
				if err != nil {
					t.Fatalf("explicit search: %v", err)
				}
				if !resultsEqual(outAuto.Results, outExp.Results) {
					t.Fatalf("auto (%d pairs) != explicit (%d pairs) for %v",
						len(outAuto.Results), len(outExp.Results), chosen)
				}
				if len(outAuto.Results) == 0 {
					t.Fatal("profile corpus produced no pairs; the cell proves nothing")
				}
			})
		}
	}
}

// TestAutoPipelineIndexAndLive extends the bit-identity contract to
// the serving builds: NewIndex and NewLiveIndex with AutoPipeline
// answer queries exactly as their explicitly-configured twins, report
// the plan with its rules, and never re-plan across a live merge.
func TestAutoPipelineIndexAndLive(t *testing.T) {
	for _, cell := range planCells {
		t.Run(cell.measure.String(), func(t *testing.T) {
			p := harness.Profiles()[1] // skewed: exercises the length/skew rules
			ds := harness.ProfileDataset(t, p, cell.measure)
			plan := bayeslsh.ChoosePlan(ds.CorpusStats(), bayeslsh.PlanQuery{
				Measure: cell.measure, Threshold: cell.threshold, Serving: true,
			})
			chosen := bayeslsh.Algorithm(plan.Pipeline)
			cfg := bayeslsh.EngineConfig{Seed: 7, Parallelism: 2}

			auto, err := bayeslsh.NewIndex(ds, cell.measure, cfg, bayeslsh.Options{
				AutoPipeline: true, Threshold: cell.threshold,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := auto.Options().Algorithm; got != chosen {
				t.Fatalf("auto index built %v, ChoosePlan says %v", got, chosen)
			}
			if auto.Options().AutoPipeline {
				t.Fatal("resolved index options still carry AutoPipeline; merges would re-plan")
			}
			if got := auto.Plan(); got.Pipeline != plan.Pipeline || len(got.Rules) == 0 {
				t.Fatalf("index Plan = %+v, want pipeline %v with rules", got, plan.Pipeline)
			}
			if st := auto.CorpusStats(); st != ds.CorpusStats() {
				t.Fatalf("index CorpusStats %+v != dataset %+v", st, ds.CorpusStats())
			}

			explicit, err := bayeslsh.NewIndex(ds, cell.measure, cfg, bayeslsh.Options{
				Algorithm: chosen, Threshold: cell.threshold,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				q := ds.Vector(i * 13 % ds.Len())
				got, err := auto.Query(q, bayeslsh.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := explicit.Query(q, bayeslsh.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !harness.MatchesEqual(got, want) {
					t.Fatalf("query %d: auto != explicit:\n got %v\nwant %v", i, got, want)
				}
			}

			// The live build: same contract, and the plan survives the
			// delta-merge path because the resolved options (not the
			// auto flag) are what mergeRun rebuilds from.
			lc := bayeslsh.LiveConfig{MaxDelta: 4, MaxRatio: -1}
			liveAuto, err := bayeslsh.NewLiveIndex(ds, cell.measure, cfg, bayeslsh.Options{
				AutoPipeline: true, Threshold: cell.threshold,
			}, lc)
			if err != nil {
				t.Fatal(err)
			}
			defer liveAuto.Close()
			liveExp, err := bayeslsh.NewLiveIndex(ds, cell.measure, cfg, bayeslsh.Options{
				Algorithm: chosen, Threshold: cell.threshold,
			}, lc)
			if err != nil {
				t.Fatal(err)
			}
			defer liveExp.Close()
			if got := liveAuto.Plan(); got.Pipeline != plan.Pipeline {
				t.Fatalf("live Plan pipeline %v, want %v", got.Pipeline, plan.Pipeline)
			}
			for i := 0; i < 6; i++ {
				v := ds.Vector(i)
				if _, err := liveAuto.Add(v); err != nil {
					t.Fatal(err)
				}
				if _, err := liveExp.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := liveAuto.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := liveExp.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := liveAuto.Options().Algorithm; got != chosen {
				t.Fatalf("post-merge live index runs %v, want %v", got, chosen)
			}
			for i := 0; i < 8; i++ {
				q := ds.Vector(i * 7 % ds.Len())
				got, err := liveAuto.Query(q, bayeslsh.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := liveExp.Query(q, bayeslsh.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !harness.MatchesEqual(got, want) {
					t.Fatalf("post-merge query %d: auto != explicit", i)
				}
			}
		})
	}
}

// TestCorpusStatsSnapshotRoundTrip proves stats persistence across
// every snapshot format: the stats collected at build time come back
// from a v1 heap reload and a v3 disk open, and the recorded pipeline
// survives as the plan (rules don't persist — the decision does).
func TestCorpusStatsSnapshotRoundTrip(t *testing.T) {
	ds := harness.ProfileDataset(t, harness.Profiles()[0], bayeslsh.Cosine)
	cfg := bayeslsh.EngineConfig{Seed: 7, Parallelism: 2}
	ix, err := bayeslsh.NewIndex(ds, bayeslsh.Cosine, cfg, bayeslsh.Options{
		AutoPipeline: true, Threshold: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ix.CorpusStats()
	if want.Zero() {
		t.Fatal("freshly built index has zero stats")
	}

	dir := t.TempDir()
	v1 := filepath.Join(dir, "ix.v1.snap")
	v3 := filepath.Join(dir, "ix.v3.snap")
	if err := ix.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFileV3(v3); err != nil {
		t.Fatal(err)
	}

	heap, err := bayeslsh.LoadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got := heap.CorpusStats(); got != want {
		t.Fatalf("v1 reload stats %+v != saved %+v", got, want)
	}
	if got := heap.Plan().Pipeline; got != ix.Plan().Pipeline {
		t.Fatalf("v1 reload plan %v != saved %v", got, ix.Plan().Pipeline)
	}

	disk, err := bayeslsh.LoadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if got := disk.CorpusStats(); got != want {
		t.Fatalf("v3 open stats %+v != saved %+v", got, want)
	}
	if got := disk.Plan().Pipeline; got != ix.Plan().Pipeline {
		t.Fatalf("v3 open plan %v != saved %v", got, ix.Plan().Pipeline)
	}

	// InspectFile sees the same stats without building an index.
	info, err := bayeslsh.InspectFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats != want {
		t.Fatalf("InspectFile(v1) stats %+v != saved %+v", info.Stats, want)
	}
	info3, err := bayeslsh.InspectFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Stats != want {
		t.Fatalf("InspectFile(v3) stats %+v != saved %+v", info3.Stats, want)
	}
}
