package bayeslsh

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bayeslsh/internal/planner"
)

// TestPipelineTable pins the one table of algorithms: every Algorithm
// constant has exactly one (generator, verifier) entry, and UsesBayes,
// Algorithms and the planner's mirror enum agree with it. A value
// outside the table is an unknown algorithm to every entry point, and
// PPJoin, which has no query-serving form and no weighted measure, is
// refused where the table says so.
func TestPipelineTable(t *testing.T) {
	if len(pipelines) != int(PPJoin)+1 {
		t.Fatalf("%d table entries for %d algorithms", len(pipelines), int(PPJoin)+1)
	}
	seen := map[pipeline]Algorithm{}
	for a := BruteForce; a <= PPJoin; a++ {
		p, err := a.pipeline()
		if err != nil || p.gen == 0 || p.ver == 0 || p.name == "" {
			t.Fatalf("%d: entry %+v, %v", int(a), p, err)
		}
		pair := pipeline{gen: p.gen, ver: p.ver}
		if prev, dup := seen[pair]; dup {
			t.Errorf("%v and %v share generator %d and verifier %d", prev, a, p.gen, p.ver)
		}
		seen[pair] = a
		if got := a.UsesBayes(); got != (p.ver == verBayes || p.ver == verLite) {
			t.Errorf("%v: UsesBayes %v, verifier %d", a, got, p.ver)
		}
		if got := planner.Pipeline(a).String(); got != p.name {
			t.Errorf("%v: planner mirrors it as %q", a, got)
		}
	}
	if _, err := Algorithm(-1).pipeline(); err == nil {
		t.Error("Algorithm(-1) has a table entry")
	}

	ds := smallDataset(t, 60).TfIdf().Normalize()
	for m := Cosine; m <= BinaryCosine; m++ {
		e, err := NewEngine(ds, m, EngineConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Algorithms lists every pipeline but the brute-force ground
		// truth, PPJoin only where the measure ignores weights.
		var want []Algorithm
		for a, p := range pipelines {
			if p.gen != genBruteForce && (p.gen != genPPJoin || e.binary) {
				want = append(want, Algorithm(a))
			}
		}
		got := Algorithms(m)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%v: Algorithms %v, table %v", m, got, want)
		}

		bad := Options{Algorithm: 99, Threshold: 0.6}
		if _, err := e.Search(bad); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%v: Search with Algorithm(99): %v", m, err)
		}
		var streamErr error
		for _, err := range e.Stream(context.Background(), bad) {
			streamErr = err
		}
		if streamErr == nil || !strings.Contains(streamErr.Error(), "unknown algorithm") {
			t.Errorf("%v: Stream with Algorithm(99): %v", m, streamErr)
		}
		if _, err := e.BuildIndex(bad); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%v: BuildIndex with Algorithm(99): %v", m, err)
		}

		pp := Options{Algorithm: PPJoin, Threshold: 0.6}
		if _, err := e.BuildIndex(pp); err == nil {
			t.Errorf("%v: PPJoin built a query-serving index", m)
		}
		if _, err := e.Search(pp); (err != nil) != !e.binary {
			t.Errorf("%v: PPJoin search error %v, want one only under weighted cosine", m, err)
		}
	}
}
