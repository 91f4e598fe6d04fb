// Disk-servable (v3) AllPairs index. The v1 stream codec re-runs
// newSearcher at load (document-frequency ranks, processing-order
// sorts — O(corpus) work); the v3 section instead persists exactly
// what a probe touches — the per-feature posting lists in their
// processing order, the minsize-filter lengths, and the unindexed-
// prefix bounds — so a View serves Probe straight from the mapped
// bytes with no rebuild. Posting ids are zigzag-delta+varint
// compressed (processing order is not ascending), weights ride along
// as raw little-endian float64s.
//
// Section layout (section start is page- and therefore 8-aligned):
//
//	f64 t            cosine-space threshold the index was built at
//	u64 n            corpus size
//	u64 dim          feature-space dimensionality
//	sizes     n × u32    full vector lengths (minsize filter)
//	unidxLen  n × u32    unindexed-prefix lengths (bound check)
//	unidxMax  n × f64    unindexed-prefix max weights
//	dir   (dim+1) × u64  byte offsets into the posting blob
//	blob  per feature f at [dir[f], dir[f+1]): entries of
//	      (zigzag-delta uvarint id, raw f64 weight)
package allpairs

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/vector"
)

// Source generates AllPairs candidates for a probed query vector: the
// heap Index and the mapped View implement it identically.
type Source interface {
	Probe(q vector.Vector) []int32
	Threshold() float64
}

const viewFixedHeader = 24

// WriteFixedSection serializes the index for disk serving.
func (ix *Index) WriteFixedSection(w *snapshot.Writer) {
	s := ix.s
	n := len(s.c.Vecs)
	w.F64(s.t)
	w.U64(uint64(n))
	w.U64(uint64(s.c.Dim))
	for _, sz := range s.sizes {
		w.U32(uint32(sz))
	}
	for _, u := range s.unidx {
		w.U32(uint32(u.Len()))
	}
	w.Pad(8)
	for _, m := range s.unidxMax {
		w.F64(m)
	}
	var off uint64
	var enc [binary.MaxVarintLen64]byte
	for f := range s.lists {
		w.U64(off)
		prev := int64(0)
		for _, p := range s.lists[f].entries {
			off += uint64(binary.PutUvarint(enc[:], snapshot.Zigzag(int64(p.id)-prev))) + 8
			prev = int64(p.id)
		}
	}
	w.U64(off)
	for f := range s.lists {
		prev := int64(0)
		for _, p := range s.lists[f].entries {
			w.Uvarint(snapshot.Zigzag(int64(p.id) - prev))
			prev = int64(p.id)
			w.F64(p.w)
		}
	}
}

// View serves AllPairs probes straight from a mapped v3 section,
// answering identically to the Index that wrote it. Immutable and
// safe for concurrent Probe calls after Validate has run.
type View struct {
	t        float64
	n, dim   int
	sizes    []uint32
	unidxLen []uint32
	unidxMax []float64
	dir      []uint64
	blob     []byte
	pool     sync.Pool // *probeState, reused across probes
}

// OpenView lays a View over a WriteFixedSection payload. Extents are
// validated against the bytes actually present; the posting walk is
// Validate, run on first touch with the section checksum.
func OpenView(buf []byte) (*View, error) {
	if len(buf) < viewFixedHeader {
		return nil, fmt.Errorf("%w: allpairs section %d bytes", snapshot.ErrCorrupt, len(buf))
	}
	r := snapshot.NewReader(buf)
	v := &View{t: r.F64()}
	n := r.U64()
	dim := r.U64()
	// Bound counts by the bytes present before arithmetic: each vector
	// costs 16 bytes of columns, each feature 8 bytes of directory.
	if !(v.t > 0 && v.t <= 1) || n > uint64(len(buf))/16 || dim < 1 || dim > uint64(vector.MaxSnapshotDim) || dim > uint64(len(buf))/8 {
		return nil, fmt.Errorf("%w: allpairs header t=%v n=%d dim=%d in %d bytes", snapshot.ErrCorrupt, v.t, n, dim, len(buf))
	}
	v.n, v.dim = int(n), int(dim)
	pad := n % 2 * 4 // two u32 columns of n entries end 8-aligned iff n even
	dirOff := uint64(viewFixedHeader) + 8*n + pad + 8*n + 8*(dim+1)
	if dirOff > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: allpairs section %d bytes, header needs %d", snapshot.ErrCorrupt, len(buf), dirOff)
	}
	off := uint64(viewFixedHeader)
	v.sizes = snapshot.ViewU32s(buf[off : off+4*n])
	off += 4 * n
	v.unidxLen = snapshot.ViewU32s(buf[off : off+4*n])
	off += 4*n + pad
	v.unidxMax = snapshot.ViewF64s(buf[off : off+8*n])
	off += 8 * n
	v.dir = snapshot.ViewU64s(buf[off : off+8*(dim+1)])
	v.blob = buf[dirOff:]
	v.pool.New = func() any {
		return &probeState{accs: make([]float64, v.n)}
	}
	return v, nil
}

// Threshold returns the (cosine-space) threshold the index was built
// at.
func (v *View) Threshold() float64 { return v.t }

// Len returns the corpus size the postings were built over.
func (v *View) Len() int { return v.n }

// Validate walks the posting directory and every entry once —
// monotone directory, decodable ids inside the corpus, whole entries
// — so probes can decode without error paths.
func (v *View) Validate() error {
	if v.dir[0] != 0 || v.dir[v.dim] != uint64(len(v.blob)) {
		return fmt.Errorf("%w: allpairs directory spans [%d, %d) of %d blob bytes",
			snapshot.ErrCorrupt, v.dir[0], v.dir[v.dim], len(v.blob))
	}
	for f := 0; f < v.dim; f++ {
		off, end := v.dir[f], v.dir[f+1]
		if end < off || end > uint64(len(v.blob)) {
			return fmt.Errorf("%w: allpairs feature %d at [%d, %d)", snapshot.ErrCorrupt, f, off, end)
		}
		prev := int64(0)
		for off < end {
			d, k, err := snapshot.UvarintAt(v.blob[off:end])
			if err != nil {
				return fmt.Errorf("allpairs feature %d: %w", f, err)
			}
			off += uint64(k)
			id := prev + snapshot.Unzigzag(d)
			if id < 0 || id >= int64(v.n) {
				return fmt.Errorf("%w: allpairs feature %d: posting id %d outside corpus of %d", snapshot.ErrCorrupt, f, id, v.n)
			}
			prev = id
			if end-off < 8 {
				return fmt.Errorf("%w: allpairs feature %d: truncated weight", snapshot.ErrCorrupt, f)
			}
			off += 8
		}
	}
	for i, sz := range v.sizes {
		if v.unidxLen[i] > sz {
			return fmt.Errorf("%w: allpairs vector %d: unindexed %d of %d entries", snapshot.ErrCorrupt, i, v.unidxLen[i], sz)
		}
	}
	return nil
}

// Probe mirrors Index.Probe over the mapped postings: same entry
// order, same accumulation order, same bound arithmetic, so the
// emitted candidate set is bit-identical. The varint stream cannot be
// binary-searched, so the minsize head skip walks the leading entries;
// it lands on the entry Index.Probe's search finds.
func (v *View) Probe(q vector.Vector) []int32 {
	if q.Len() == 0 {
		return nil
	}
	ps := v.pool.Get().(*probeState)
	defer v.pool.Put(ps)
	qmax := q.MaxVal()
	minsize := minSize(v.t, qmax)
	touched := ps.touched[:0]
	for j, f := range q.Ind {
		if uint64(f) >= uint64(v.dim) {
			continue // feature outside the corpus dimensionality
		}
		w := q.Val[j]
		off, end := v.dir[f], v.dir[f+1]
		prev := int64(0)
		skipping := true
		for off < end {
			d, k, _ := snapshot.UvarintAt(v.blob[off:end])
			id := int32(prev + snapshot.Unzigzag(d))
			prev = int64(id)
			pw := math.Float64frombits(binary.LittleEndian.Uint64(v.blob[off+uint64(k):]))
			off += uint64(k) + 8
			if skipping {
				if int32(v.sizes[id]) < minsize {
					continue
				}
				skipping = false
			}
			if ps.accs[id] == 0 {
				touched = append(touched, id)
			}
			ps.accs[id] += w * pw
		}
	}
	for _, y := range touched {
		a := ps.accs[y]
		ps.accs[y] = 0
		bound := a + math.Min(float64(q.Len()), float64(v.unidxLen[y]))*qmax*v.unidxMax[y]
		if bound >= v.t-fpSlack {
			ps.ids.Add(y)
		}
	}
	ps.touched = touched
	return ps.ids.Ascending()
}
