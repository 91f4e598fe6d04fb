package allpairs

import (
	"context"
	"slices"
	"testing"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// span is the binary vector of features [lo, hi).
func span(lo, hi uint32) vector.Vector {
	var v vector.Vector
	for f := lo; f < hi; f++ {
		v.Ind = append(v.Ind, f)
		v.Val = append(v.Val, 1)
	}
	return v
}

// withFillers puts x and y at ids 0 and 1 of a collection padded with
// random sets over the same features, so feature ranks, per-feature
// maxima and the processing order are not trivial.
func withFillers(x, y vector.Vector) *vector.Collection {
	const dim = 120
	src := rng.New(99)
	vecs := []vector.Vector{x, y}
	for i := 0; i < 40; i++ {
		m := map[uint32]float64{}
		for j := 0; j < 12; j++ {
			m[uint32(src.Intn(dim))] = 1
		}
		vecs = append(vecs, vector.FromMap(m))
	}
	return &vector.Collection{Dim: dim, Vecs: vecs}
}

// TestSizeBoundaryPairsEmitted: pairs sitting exactly on the size
// filter's bounds are emitted by the batch scan, by Index.Probe from
// either side, and by a View over the v3 section. The squared
// Cauchy–Schwarz bound |y| ≥ (t/maxweight(x))² = t²·|x| on binary
// vectors is met with equality by a subset y of x at cosine exactly t.
func TestSizeBoundaryPairsEmitted(t *testing.T) {
	w := vector.FromMap(map[uint32]float64{0: 1, 3: 2, 5: 3, 8: 4, 9: 5})
	cases := []struct {
		name string
		m    exact.Measure
		th   float64
		x, y vector.Vector
	}{
		// y ⊂ x: J = 38/76 = t.
		{"jaccard subset at t", exact.Jaccard, 0.5, span(0, 76), span(0, 38)},
		// t_cos = 2/3: |y| = t_cos²·|x| = 36, binary cosine exactly
		// t_cos — a candidate, though J = 36/81 < t.
		{"jaccard candidate at squared bound", exact.Jaccard, 0.5, span(0, 81), span(0, 36)},
		// |y| = t²·|x| = 19 exactly, and cosine = t.
		{"binary cosine size = t²|x|", exact.BinaryCosine, 0.5, span(0, 76), span(0, 19)},
		// The same pair under cosine, whose threshold carries no slack
		// of its own from the measure mapping.
		{"cosine size = t²|x|", exact.Cosine, 0.5, span(0, 76), span(0, 19)},
		// |y| = ⌈t²·|x|⌉ = ⌈37.24⌉.
		{"binary cosine size = ⌈t²|x|⌉", exact.BinaryCosine, 0.7, span(0, 76), span(0, 38)},
		// Overlap 6 of 18 and 8: 6/√144 = t, neither a subset.
		{"binary cosine at t", exact.BinaryCosine, 0.5, span(0, 18), span(12, 20)},
		{"jaccard duplicates at t = 1", exact.Jaccard, 1, span(40, 60), span(40, 60)},
		{"cosine duplicates at t = 1", exact.Cosine, 1, w, w.Clone()},
	}
	ctx := context.Background()
	for _, tc := range cases {
		c := withFillers(tc.x, tc.y)
		if tc.m == exact.Cosine {
			c.Normalize()
		}
		for _, workers := range []int{1, 3} {
			cands, err := CandidatesMeasureCtx(ctx, c, tc.m, tc.th, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(cands, pair.Make(0, 1)) {
				t.Errorf("%s: batch scan at %d workers did not emit the pair", tc.name, workers)
			}
			got, err := searchCollect(ctx, c, tc.m, tc.th, workers, 64)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireSameResults(t, got, exact.Search(c, tc.m, tc.th), 1e-12)
		}
		ix, err := BuildIndexMeasure(c, tc.m, tc.th)
		if err != nil {
			t.Fatal(err)
		}
		v, err := OpenView(viewSection(t, ix))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, src := range []Source{ix, v} {
			for q, want := range []int32{1, 0} {
				if ids := src.Probe(TransformQuery(c.Vecs[q], tc.m)); !slices.Contains(ids, want) {
					t.Errorf("%s: %T probe with vector %d missed %d", tc.name, src, q, want)
				}
			}
		}
	}
}
