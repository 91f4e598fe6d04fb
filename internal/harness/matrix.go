package harness

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bayeslsh"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/sighash"
)

// The shared test matrix: one definition of the measures × pipelines ×
// corpus grid that every bit-identity suite walks — the HTTP serving
// harness (internal/server), the sharded scatter-gather equivalence
// suite (internal/cluster), and the module-root query-vs-batch
// cross-check. Keeping the matrix here means a new pipeline or measure
// lands in all three suites by editing one file, and the suites cannot
// drift apart on corpus construction or comparison strictness.

// MatrixCell is one measure × threshold cell of the serving-side
// matrix.
type MatrixCell struct {
	Measure   bayeslsh.Measure
	Threshold float64
}

// Cells returns the serving-side measure matrix: every measure, at a
// threshold where the planted-triple corpus has real matches.
func Cells() []MatrixCell {
	return []MatrixCell{
		{bayeslsh.Cosine, 0.6},
		{bayeslsh.Jaccard, 0.5},
		{bayeslsh.BinaryCosine, 0.6},
	}
}

// Pipelines returns the query-serving pipeline axis for a measure:
// every algorithm the measure supports plus BruteForce, minus PPJoin
// (whose join-order-dependent prefix filter has no query-serving
// index).
func Pipelines(m bayeslsh.Measure) []bayeslsh.Algorithm {
	var out []bayeslsh.Algorithm
	for _, alg := range append(bayeslsh.Algorithms(m), bayeslsh.BruteForce) {
		if alg != bayeslsh.PPJoin {
			out = append(out, alg)
		}
	}
	return out
}

// Corpus builds the deterministic clustered corpus of the serving
// matrix: n vectors over a 400-feature space, in planted near-duplicate
// triples so every pipeline has real matches to return. The returned
// maps are the raw feature maps, index-aligned with the dataset —
// already normalized for Cosine, binarized otherwise — so rendering
// map i in the wire grammar parses back to dataset vector i exactly.
func Corpus(tb testing.TB, m bayeslsh.Measure, n int) (*bayeslsh.Dataset, []map[uint32]float64) {
	tb.Helper()
	const dim = 400
	rng := rand.New(rand.NewSource(7))
	maps := make([]map[uint32]float64, 0, n)
	var center map[uint32]float64
	for i := 0; i < n; i++ {
		if i%3 == 0 || center == nil {
			center = make(map[uint32]float64, 18)
			for len(center) < 18 {
				center[uint32(rng.Intn(dim))] = 0.5 + rng.Float64()
			}
		}
		v := make(map[uint32]float64, len(center)+1)
		for f, w := range center {
			v[f] = w
		}
		if i%3 != 0 {
			// Mutate the copies so similarities vary. The deleted
			// feature is picked deterministically (never by map
			// iteration order — the corpus must be identical run to
			// run) and differs between the two copies, and the added
			// feature is new to the vector and never re-adds the
			// deleted one — so the triple stays pairwise distinct even
			// after binarization collapses the weights (the result
			// cache keys on vector content; a duplicate vector would
			// legitimately turn an expected miss into a hit).
			feats := make([]uint32, 0, len(v))
			for f := range v {
				//apsslint:allow mapiter the keys are sorted before use
				feats = append(feats, f)
			}
			sort.Slice(feats, func(a, b int) bool { return feats[a] < feats[b] })
			del := feats[i%3-1]
			delete(v, del)
			for {
				f := uint32(rng.Intn(dim))
				if _, dup := v[f]; !dup && f != del {
					v[f] = 0.5 + rng.Float64()
					break
				}
			}
		}
		maps = append(maps, PrepMap(m, v))
	}
	ds := bayeslsh.NewDataset(dim)
	for _, v := range maps {
		ds.Add(v)
	}
	return ds, maps
}

// PrepMap puts a raw feature map into the measure's input form:
// unit-normalized for Cosine, binarized for the set measures — the
// same preprocessing a corpus would get, applied to the map itself so
// map and dataset vector stay bit-identical.
func PrepMap(m bayeslsh.Measure, v map[uint32]float64) map[uint32]float64 {
	out := make(map[uint32]float64, len(v))
	if m == bayeslsh.Cosine {
		var ss float64
		for _, w := range v {
			ss += w * w
		}
		norm := math.Sqrt(ss)
		for f, w := range v {
			out[f] = w / norm
		}
	} else {
		for f := range v {
			out[f] = 1
		}
	}
	return out
}

// VecString renders a feature map in the wire grammar, features
// sorted, weights in exact shortest-round-trip form.
func VecString(v map[uint32]float64) string {
	feats := make([]uint32, 0, len(v))
	for f := range v {
		feats = append(feats, f)
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
	var b strings.Builder
	for i, f := range feats {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(f), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(v[f], 'g', -1, 64))
	}
	return b.String()
}

// LiveConfig is the matrix's live-index tuning: automatic merging off,
// so tests control their compaction points explicitly.
func LiveConfig() bayeslsh.LiveConfig {
	return bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1}
}

// EngineConfig is the matrix's engine tuning: the fixed seed every
// suite shares, which is what makes sharded, served and direct answers
// comparable bit-for-bit.
func EngineConfig() bayeslsh.EngineConfig {
	return bayeslsh.EngineConfig{Seed: 7, Parallelism: 2}
}

// HashFamily returns the process's hyperplane family for a cosine
// index over dim features under cfg (sighash.SharedBlockFamily): the
// family every such index alive hashes with, keyed as the engine keys
// it — SignatureBits (default 2048) in 128-bit blocks, seeded from
// rng.Derive(cfg.Seed, 1). With no such index alive it is a fresh
// family with no rows. The serving suites read its row count to see
// which indexes hash through it, since no exported API reaches an
// index's family.
func HashFamily(dim int, cfg bayeslsh.EngineConfig) *sighash.BlockFamily {
	bits := cfg.SignatureBits
	if bits == 0 {
		bits = 2048
	}
	return sighash.SharedBlockFamily(dim, bits, 128, rng.Derive(cfg.Seed, 1))
}

// NewLive builds a live index for one measure × pipeline cell under
// the matrix's shared seed and merge tuning.
func NewLive(tb testing.TB, ds *bayeslsh.Dataset, m bayeslsh.Measure, alg bayeslsh.Algorithm, threshold float64) *bayeslsh.LiveIndex {
	tb.Helper()
	li, err := bayeslsh.NewLiveIndex(ds, m, EngineConfig(),
		bayeslsh.Options{Algorithm: alg, Threshold: threshold}, LiveConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return li
}

// MatchesEqual is strict equality: same ids, same float64 bits.
func MatchesEqual(a, b []bayeslsh.Match) bool {
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

// QueryCell is one measure's cell of the engine-side (query-vs-batch)
// matrix: its threshold, engine config, and dataset preprocessing.
type QueryCell struct {
	Measure   bayeslsh.Measure
	Threshold float64
	Config    bayeslsh.EngineConfig
	Prep      func(*bayeslsh.Dataset) *bayeslsh.Dataset
}

// QueryCells returns the engine-side matrix, matching the thresholds
// and engine configs of the module's batch agreement tests.
func QueryCells() []QueryCell {
	return []QueryCell{
		{bayeslsh.Cosine, 0.7, bayeslsh.EngineConfig{Seed: 7, SignatureBits: 1024},
			func(d *bayeslsh.Dataset) *bayeslsh.Dataset { return d.TfIdf().Normalize() }},
		{bayeslsh.Jaccard, 0.4, bayeslsh.EngineConfig{Seed: 8},
			func(d *bayeslsh.Dataset) *bayeslsh.Dataset { return d.Binarize() }},
		{bayeslsh.BinaryCosine, 0.7, bayeslsh.EngineConfig{Seed: 9, SignatureBits: 1024},
			func(d *bayeslsh.Dataset) *bayeslsh.Dataset { return d }},
	}
}

// QueryPipelines returns the query-serving pipelines of the engine-side
// matrix; every one is exactly consistent with the batch search (the
// AllPairs candidate test is symmetric in the pair, so even the
// estimate-reporting AllPairsBayesLSH pipeline agrees strictly — see
// docs/QUERYING.md).
func QueryPipelines() []bayeslsh.Algorithm {
	return []bayeslsh.Algorithm{
		bayeslsh.BruteForce, bayeslsh.AllPairs, bayeslsh.LSH, bayeslsh.LSHApprox,
		bayeslsh.LSHBayesLSH, bayeslsh.LSHBayesLSHLite,
		bayeslsh.AllPairsBayesLSH, bayeslsh.AllPairsBayesLSHLite,
	}
}

// BatchPartners extracts, for every vector id, the partners and
// similarities a batch search reports for pairs involving it — the
// ground truth the per-query suites compare against.
func BatchPartners(out *bayeslsh.Output, n int) []map[int]float64 {
	ps := make([]map[int]float64, n)
	for i := range ps {
		ps[i] = map[int]float64{}
	}
	for _, r := range out.Results {
		ps[r.A][r.B] = r.Sim
		ps[r.B][r.A] = r.Sim
	}
	return ps
}
