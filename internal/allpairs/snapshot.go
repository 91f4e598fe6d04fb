// Snapshot codec of the query-serving inverted index. What a probe
// reads is the postings lists and the unindexed prefixes — the output
// of the indexing pass — so that is what a snapshot carries. The
// scan's derived state (feature ranks, processing order, minsize
// sizes, per-feature maxima) is two deterministic sorts over the
// collection — features by document frequency, vectors by maximum
// weight — recomputed at load by the same newSearcher the build uses,
// so the two can never disagree. The per-vector rank ordering the
// build derives by counting transpose is not needed at load: the
// postings already carry its result. Each posting's processing
// position and each list's prefix size key are in-memory only and are
// rebuilt as the postings are decoded, so the bytes are those of the
// plain (id, weight) lists.

package allpairs

import (
	"math"

	"bayeslsh/internal/exact"
	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/vector"
)

// WriteSnapshot serializes the built index: the (cosine-space)
// threshold, every postings list, and every unindexed prefix.
func (ix *Index) WriteSnapshot(w *snapshot.Writer) {
	s := ix.s
	w.F64(s.t)
	w.U64(uint64(len(s.lists)))
	for _, list := range s.lists {
		w.U64(uint64(len(list.entries)))
		for _, p := range list.entries {
			w.U32(uint32(p.id))
			w.F64(p.w)
		}
	}
	w.U64(uint64(len(s.unidx)))
	for _, u := range s.unidx {
		u.WriteSnapshot(w)
	}
}

// ReadIndexSnapshot decodes an index written by WriteSnapshot over the
// same (raw) collection, measure and threshold it was built with: the
// searcher shell is reconstructed from the collection exactly as
// BuildIndexMeasure does, then the serialized postings and unindexed
// prefixes replace the indexing pass.
func ReadIndexSnapshot(r *snapshot.Reader, c *vector.Collection, m exact.Measure, t float64) (*Index, error) {
	in, tc, err := measureInput(c, m, t)
	if err != nil {
		return nil, err
	}
	if st := r.F64(); r.Err() == nil && st != tc {
		return nil, snapshot.Failf(r, "index threshold %v, expected %v", st, tc)
	}
	// Validate the per-feature list count — 8 in-file bytes per
	// feature — before newSearcher sizes its Dim-proportional state,
	// so allocations stay proportional to the bytes actually present.
	nl := r.Len(8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nl != in.Dim {
		return nil, snapshot.Failf(r, "%d postings lists for dimensionality %d", nl, in.Dim)
	}
	s, err := newSearcher(in, tc)
	if err != nil {
		return nil, err
	}
	for f := 0; f < nl; f++ {
		ne := r.Len(12) // per posting: id + weight
		if r.Err() != nil {
			return nil, r.Err()
		}
		if ne == 0 {
			continue
		}
		s.lists[f].entries = make([]posting, 0, ne)
		s.lists[f].reach = make([]int32, 0, ne)
		for i := 0; i < ne; i++ {
			id := int32(r.U32())
			wgt := r.F64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if id < 0 || int(id) >= len(in.Vecs) {
				return nil, snapshot.Failf(r, "list %d: posting id %d outside corpus of %d", f, id, len(in.Vecs))
			}
			if math.IsNaN(wgt) || math.IsInf(wgt, 0) {
				return nil, snapshot.Failf(r, "list %d: bad posting weight %v", f, wgt)
			}
			s.add(uint32(f), id, wgt)
		}
	}
	nu := r.Len(16)
	if r.Err() == nil && nu != len(s.unidx) {
		return nil, snapshot.Failf(r, "%d unindexed prefixes for corpus of %d", nu, len(s.unidx))
	}
	for i := 0; i < nu; i++ {
		u, err := vector.ReadVectorSnapshot(r)
		if err != nil {
			return nil, err
		}
		s.unidx[i] = u
		s.unidxMax[i] = u.MaxVal()
	}
	return newIndex(s), nil
}
