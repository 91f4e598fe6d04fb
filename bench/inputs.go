package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"bayeslsh"
	"bayeslsh/internal/dataset"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/server"
	"bayeslsh/internal/vector"
)

// Every engine under test runs with the same hashing seed and worker
// count; the benchmark seed only ever shapes the inputs.
const (
	engineSeed = 42
	workers    = 2
)

var engineCfg = bayeslsh.EngineConfig{Seed: engineSeed, Parallelism: workers}

// Streams derived from the benchmark seed, one per independent draw.
const (
	streamCorpus uint64 = iota + 1
	streamSplit
	streamQueryPick
	streamQueryOrder
	streamWrites
	streamClient // + client number
)

// Corpus shapes: analogues of the paper's Table 1 (internal/dataset's
// standard specs, minus the fixed seed). The WikiWords shape plants
// twice the standard share of near-duplicate clusters, so that recall
// and estimate error are judged over ~750 pairs instead of ~375 and
// scatter less from seed to seed; candidate counts barely move.
var (
	shapeWikiWords = dataset.Spec{Name: "wikiwords-shape", Kind: dataset.Text, N: 1500, Dim: 30000, AvgLen: 500, ZipfS: 1.02, ClusterFrac: 0.6, ClusterSize: 4, MutationRate: 0.25}
	shapeOrkut     = dataset.Spec{Name: "orkut-shape", Kind: dataset.Graph, N: 8000, AvgLen: 76, ClusterFrac: 0.25, ClusterSize: 5, MutationRate: 0.2}
	shapeRCV1      = dataset.Spec{Name: "rcv1-shape", Kind: dataset.Text, N: 4000, Dim: 12000, AvgLen: 76, ZipfS: 1.05, ClusterFrac: 0.3, ClusterSize: 4, MutationRate: 0.25}
)

// generate draws the corpus of the given shape for a benchmark seed.
func generate(shape dataset.Spec, seed uint64) (*vector.Collection, error) {
	shape.Seed = rng.Derive(seed, streamCorpus)
	return dataset.Generate(shape)
}

// featureMap renders a vector in the form Dataset.Add and NewVec take.
func featureMap(v vector.Vector) map[uint32]float64 {
	m := make(map[uint32]float64, v.Len())
	for i, f := range v.Ind {
		m[f] = v.Val[i]
	}
	return m
}

// batchInputs is what a batch workload hands the library: raw
// term-frequency / adjacency vectors, already in Dataset.Add's form so
// that set-up times the library's ingest and not the map building.
type batchInputs struct {
	raw  *vector.Collection
	maps []map[uint32]float64
}

func genBatch(shape dataset.Spec, seed uint64) (*batchInputs, error) {
	raw, err := generate(shape, seed)
	if err != nil {
		return nil, err
	}
	in := &batchInputs{raw: raw, maps: make([]map[uint32]float64, len(raw.Vecs))}
	for i, v := range raw.Vecs {
		in.maps[i] = featureMap(v)
	}
	return in, nil
}

// query is one request vector in every form the benchmark needs: the
// internal vector (exact similarities), the public Vec (in-process
// reference calls) and the rendered /v1/query or /v1/add body.
type query struct {
	vec  vector.Vector
	q    bayeslsh.Vec
	body []byte
}

func newQuery(v vector.Vector) (query, error) {
	q := bayeslsh.NewVec(featureMap(v))
	body, err := json.Marshal(struct {
		Vec string `json:"vec"`
	}{server.FormatVec(q)})
	if err != nil {
		return query{}, fmt.Errorf("render query body: %w", err)
	}
	return query{vec: v, q: q, body: body}, nil
}

// serveInputs is what a serving workload hands the program: the
// corpus as a .vec file (already Tf-Idf weighted and normalized, since
// apss reads -file verbatim), the distinct read queries and the
// held-out vectors the writer ingests.
type serveInputs struct {
	corpusText []byte
	corpus     *vector.Collection // corpusText parsed back, so both sides see the same floats
	ds         *bayeslsh.Dataset  // likewise, for in-process reference indexes
	queries    []query            // half corpus members, half held-out, shuffled
	adds       []query
}

const (
	serveThreshold = 0.7
	numMemberQ     = 500
	numHeldOutQ    = 500
	numAdds        = 3000
)

// genServe draws corpus, queries and ingest vectors from one
// generator call: the collection is weighted as a whole, shuffled with
// a seeded permutation (the generator emits planted clusters first, so
// an unshuffled tail would hold no near neighbours), and split.
func genServe(seed uint64) (*serveInputs, error) {
	shape := shapeRCV1
	n := shape.N
	shape.N = n + numHeldOutQ + numAdds
	all, err := generate(shape, seed)
	if err != nil {
		return nil, err
	}
	all = all.TfIdf().Normalize()
	perm := rng.New(rng.Derive(seed, streamSplit)).Perm(len(all.Vecs))
	pick := func(lo, hi int) []vector.Vector {
		vs := make([]vector.Vector, 0, hi-lo)
		for _, p := range perm[lo:hi] {
			vs = append(vs, all.Vecs[p])
		}
		return vs
	}

	in := &serveInputs{}
	var buf bytes.Buffer
	if _, err := (&vector.Collection{Dim: all.Dim, Vecs: pick(0, n)}).WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("render corpus: %w", err)
	}
	in.corpusText = buf.Bytes()
	if in.corpus, err = vector.Read(bytes.NewReader(in.corpusText)); err != nil {
		return nil, fmt.Errorf("parse corpus back: %w", err)
	}
	if in.ds, err = bayeslsh.ReadDataset(bytes.NewReader(in.corpusText)); err != nil {
		return nil, fmt.Errorf("parse corpus back: %w", err)
	}

	members := rng.New(rng.Derive(seed, streamQueryPick)).Perm(n)[:numMemberQ]
	qvecs := pick(n, n+numHeldOutQ)
	for _, id := range members {
		qvecs = append(qvecs, in.corpus.Vecs[id])
	}
	rng.New(rng.Derive(seed, streamQueryOrder)).Shuffle(len(qvecs), func(i, j int) {
		qvecs[i], qvecs[j] = qvecs[j], qvecs[i]
	})
	for _, v := range qvecs {
		q, err := newQuery(v)
		if err != nil {
			return nil, err
		}
		in.queries = append(in.queries, q)
	}
	for _, v := range pick(n+numHeldOutQ, len(perm)) {
		q, err := newQuery(v)
		if err != nil {
			return nil, err
		}
		in.adds = append(in.adds, q)
	}
	return in, nil
}

// Query skew of serve_mixed: rank r is drawn with probability
// proportional to 1/(r+1+zipfShift)^zipfS — Zipf(1.1) with its head
// flattened (Zipf–Mandelbrot). Pure Zipf(1.1) over 1000 queries sends
// 18% of the traffic to one query, so the run measures what that one
// query happens to cost and changes by 6% from seed to seed; with the
// shift the hottest query gets 4% and the hottest ten a quarter, still
// enough repetition for the result cache to hit.
const (
	zipfS     = 1.1
	zipfShift = 5
)

// queryOrder yields the sequence of query indices one client sends:
// uniform over [0, n), or skewed as above.
type queryOrder struct {
	src *rng.Source
	n   int
	cdf []float64 // nil for uniform
}

func newQueryOrder(seed uint64, client, n int, skewed bool) *queryOrder {
	o := &queryOrder{src: rng.New(rng.Derive(seed, streamClient+uint64(client))), n: n}
	if skewed {
		o.cdf = make([]float64, n)
		sum := 0.0
		for r := range o.cdf {
			sum += math.Pow(float64(r+1+zipfShift), -zipfS)
			o.cdf[r] = sum
		}
		for r := range o.cdf {
			o.cdf[r] /= sum
		}
	}
	return o
}

func (o *queryOrder) next() int {
	if o.cdf == nil {
		return o.src.Intn(o.n)
	}
	// The first rank whose cumulative share reaches the draw; the last
	// share is 1 up to rounding, hence the clamp.
	return min(sort.SearchFloat64s(o.cdf, o.src.Float64()), o.n-1)
}

// writeOp is one step of the writer's schedule: ingest adds[add], or
// (add < 0) delete the live id del.
type writeOp struct {
	add, del int
}

// writeSchedule is the writer's whole programme for a seed: three adds
// to one delete, each delete aimed at an id that is live at that point
// (a corpus member or an earlier add — ids are issued densely from n0,
// which the run checks), so no write ever fails.
func writeSchedule(seed uint64, n0, adds int) []writeOp {
	src := rng.New(rng.Derive(seed, streamWrites))
	live := make([]int, n0, n0+adds)
	for i := range live {
		live[i] = i
	}
	var ops []writeOp
	for added := 0; added < adds; {
		if len(ops)%4 == 3 {
			j := src.Intn(len(live))
			ops = append(ops, writeOp{add: -1, del: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		ops = append(ops, writeOp{add: added})
		live = append(live, n0+added)
		added++
	}
	return ops
}
