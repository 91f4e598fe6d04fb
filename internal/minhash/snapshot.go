// Snapshot codec of the minhash store, mirroring the sighash one: the
// family is re-derived from the engine's seed at load, so a snapshot
// carries only the per-vector fill depths and filled hash prefixes.
// Restoring them makes a loaded store bit-identical to the saved one;
// deeper demands lazily extend the prefixes from the same per-function
// seed streams.

package minhash

import (
	"bayeslsh/internal/snapshot"
)

// WriteSnapshot serializes the per-vector fill state: fill depth in
// hashes, then the filled prefix.
func (s *Store) WriteSnapshot(w *snapshot.Writer) {
	w.U64(uint64(len(s.sigs)))
	for id := range s.sigs {
		fill := s.fill.Filled(int32(id))
		w.U32(uint32(fill))
		w.U32s(s.sigs[id][:fill])
	}
}

// ReadSnapshot restores fill state written by WriteSnapshot into a
// freshly constructed store over the same collection and family. It
// must run before the store is shared with concurrent readers.
func (s *Store) ReadSnapshot(r *snapshot.Reader) error {
	n := r.Len(12) // per vector: fill depth + hash-count prefix
	if r.Err() == nil && n != len(s.sigs) {
		return snapshot.Failf(r, "store has %d vectors, snapshot %d", len(s.sigs), n)
	}
	low := s.fam.Size()
	for id := 0; id < n; id++ {
		fill := int(r.U32())
		hashes := r.U32s()
		if r.Err() != nil {
			break
		}
		if fill < 0 || fill > s.fam.Size() || len(hashes) != fill {
			return snapshot.Failf(r, "vector %d: fill %d with %d hashes", id, fill, len(hashes))
		}
		copy(s.sigs[id], hashes)
		s.fill.Restore(int32(id), fill)
		low = min(low, fill)
	}
	if r.Err() == nil && n > 0 {
		s.fill.Raise(low)
	}
	return r.Err()
}
