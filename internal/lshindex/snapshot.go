// Stream (v1/v2) codec of the band tables. The stream spells every
// bucket out — key, then its ids as a length-prefixed int32 list — in
// ascending key order per band, which is the runs' own order, so
// writing needs no sort and the same tables always produce the same
// bytes. Decoding re-encodes each bucket into a run and rejects what a
// run cannot hold — keys not strictly ascending, an empty bucket, ids
// out of the corpus or not strictly ascending — so a corrupt snapshot
// fails cleanly instead of producing out-of-range probes.

package lshindex

import "bayeslsh/internal/snapshot"

// WriteSnapshot serializes the tables: band shape, then per band the
// bucket count and each bucket's key and ids in ascending key order.
func (t *BitsTables) WriteSnapshot(w *snapshot.Writer) {
	w.U32(uint32(t.k))
	w.U32(uint32(t.l))
	w.Bool(t.multiProbe)
	t.writeBuckets(w)
}

// ReadBitsTablesSnapshot decodes tables written by
// BitsTables.WriteSnapshot over a corpus of n vectors.
func ReadBitsTablesSnapshot(r *snapshot.Reader, n int) (*BitsTables, error) {
	t := &BitsTables{runTables: runTables{k: int(r.U32()), l: int(r.U32()), n: n}, multiProbe: r.Bool()}
	if r.Err() == nil && (t.k < 1 || t.k > 64 || t.l < 1) {
		return nil, snapshot.Failf(r, "band shape k=%d l=%d", t.k, t.l)
	}
	if err := t.readBuckets(r); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteSnapshot serializes the tables: band shape, then per band the
// bucket count and each bucket's key and ids in ascending key order.
func (t *MinhashTables) WriteSnapshot(w *snapshot.Writer) {
	w.U32(uint32(t.k))
	w.U32(uint32(t.l))
	t.writeBuckets(w)
}

// ReadMinhashTablesSnapshot decodes tables written by
// MinhashTables.WriteSnapshot over a corpus of n vectors.
func ReadMinhashTablesSnapshot(r *snapshot.Reader, n int) (*MinhashTables, error) {
	t := &MinhashTables{runTables{k: int(r.U32()), l: int(r.U32()), n: n}}
	if r.Err() == nil && (t.k < 1 || t.l < 1) {
		return nil, snapshot.Failf(r, "band shape k=%d l=%d", t.k, t.l)
	}
	if err := t.readBuckets(r); err != nil {
		return nil, err
	}
	return t, nil
}

// writeBuckets streams every band's buckets in run (ascending key)
// order.
func (t *runTables) writeBuckets(w *snapshot.Writer) {
	var ids []int32
	for _, b := range t.bands {
		w.U64(uint64(len(b.keys)))
		for i, key := range b.keys {
			ids = b.bucket(i, ids[:0], t.n)
			w.U64(key)
			w.I32s(ids)
		}
	}
}

// readBuckets decodes t.l bands of streamed buckets into runs,
// validating that every band's keys strictly ascend (as every writer
// streams them) and that every bucket is non-empty, strictly ascending
// and inside the corpus of t.n vectors. Like every other decoded
// length, l is bounded by the bytes actually present (each band
// carries at least its 8-byte bucket count) before any allocation, so
// a forged band count cannot over-allocate.
func (t *runTables) readBuckets(r *snapshot.Reader) error {
	if t.l < 1 || r.Err() != nil {
		return r.Err()
	}
	if t.l > r.Remaining()/8 {
		return snapshot.Failf(r, "band count %d exceeds remaining %d bytes", t.l, r.Remaining())
	}
	t.bands = make([]bandRun, t.l)
	for band := range t.bands {
		run := &t.bands[band]
		nb := r.Len(16) // per bucket: key + id-count prefix
		for i := 0; i < nb; i++ {
			key, ids := r.U64(), r.I32s()
			if r.Err() != nil {
				return r.Err()
			}
			if i > 0 && key <= run.keys[i-1] {
				return snapshot.Failf(r, "band %d bucket %d: key %d after %d (duplicate or out of order)", band, i, key, run.keys[i-1])
			}
			if len(ids) == 0 {
				return snapshot.Failf(r, "band %d bucket %d: empty bucket", band, i)
			}
			for j, id := range ids {
				if id < 0 || int(id) >= t.n {
					return snapshot.Failf(r, "band %d bucket %d: id %d outside corpus of %d", band, i, id, t.n)
				}
				if j > 0 && id <= ids[j-1] {
					return snapshot.Failf(r, "band %d bucket %d: id %d after %d, not ascending", band, i, id, ids[j-1])
				}
			}
			run.add(key, ids)
		}
	}
	return r.Err()
}
