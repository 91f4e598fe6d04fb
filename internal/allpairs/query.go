// Query-serving AllPairs: the batch entry points interleave (or
// stage) index building and probing and then throw the inverted index
// away. Index keeps the fully built index resident so single
// out-of-corpus vectors can be probed against it repeatedly — the
// probe-only path of the engine's build-once/query-many mode. A query
// probe replays the corpus probe of the sequential scan with one
// difference: it has no processing-order position, so it sees every
// corpus vector (a corpus vector only sees those processed before it).
// Candidate bounds are upper bounds on the true similarity, so every
// pair meeting the threshold is emitted by both the batch scan and the
// query probe; the two can disagree only on sub-threshold false
// candidates. Exact (and Lite) verification rejects those on either
// path, and the full-Bayes caller closes the same gap by
// exact-checking only its accepted hits on both paths — so query
// results equal batch results for every AllPairs pipeline.

package allpairs

import (
	"math"
	"sync"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/vector"
)

// Index is an AllPairs inverted index built once over a corpus,
// serving point probes for query vectors. It is immutable after
// BuildIndex and safe for concurrent Probe calls.
type Index struct {
	s    *searcher
	pool sync.Pool // *probeState, reused across probes
}

// BuildIndex builds the inverted index over the collection at
// threshold t, indexing every vector to completion — the cheap, linear
// phase of the AllPairs scan (see Search for the input contract:
// unit-norm, non-negative weights).
func BuildIndex(c *vector.Collection, t float64) (*Index, error) {
	s, err := newSearcher(c, t)
	if err != nil {
		return nil, err
	}
	if err := s.index(nil); err != nil {
		return nil, err
	}
	return newIndex(s), nil
}

// newIndex wraps a fully indexed searcher in the probe-serving Index —
// shared by BuildIndex and the snapshot loader.
func newIndex(s *searcher) *Index {
	ix := &Index{s: s}
	ix.pool.New = func() any {
		return &probeState{accs: make([]float64, len(s.c.Vecs))}
	}
	return ix
}

// BuildIndexMeasure builds the index under the given measure, applying
// the same input preprocessing and threshold mapping as the batch
// SearchMeasure (binary measures are binarized, normalized and run at
// the mapped cosine threshold). Query vectors passed to Probe must be
// preprocessed the same way; TransformQuery does exactly that.
func BuildIndexMeasure(c *vector.Collection, m exact.Measure, t float64) (*Index, error) {
	in, tc, err := measureInput(c, m, t)
	if err != nil {
		return nil, err
	}
	return BuildIndex(in, tc)
}

// TransformQuery maps a raw query vector into the representation the
// index's collection was built in: unchanged for Cosine (the caller
// normalizes, as for the corpus), binarized and unit-normalized for
// the binary measures.
func TransformQuery(q vector.Vector, m exact.Measure) vector.Vector {
	switch m {
	case exact.Jaccard, exact.BinaryCosine:
		return q.Binarize().Normalize()
	default:
		return q
	}
}

// Threshold returns the (cosine-space) threshold the index was built
// at.
func (ix *Index) Threshold() float64 { return ix.s.t }

// Probe returns the ids of corpus vectors that pass the AllPairs
// candidate bound against q, in ascending id order. q must be in the
// index's representation (see BuildIndexMeasure/TransformQuery). The
// id set is a superset of the corpus vectors whose similarity to q
// meets the built threshold; callers verify survivors under their
// measure. The probe emits distinct ids in accumulation order; the
// pooled probe state's id-set reads them out ascending into the one
// exact-size result.
func (ix *Index) Probe(q vector.Vector) []int32 {
	ps := ix.pool.Get().(*probeState)
	ix.s.probe(q, math.MaxInt32, ps, nil, func(y int32, _ float64) { ps.ids.Add(y) })
	ids := ps.ids.Ascending()
	ix.pool.Put(ps)
	return ids
}
