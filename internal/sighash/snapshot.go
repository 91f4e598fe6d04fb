// Snapshot codec of the bit-signature store: the hash family is fully
// determined by (dim, maxBits, blockBits, seed), all of which the
// engine re-derives from its config at load, so a snapshot
// carries only what cannot be recomputed cheaply — each vector's fill
// depth and the filled signature words. Restoring them makes a loaded
// store bit-identical to the one that was saved: already-filled
// prefixes are served as-is and deeper demands lazily extend them from
// the same (seed, feature, block) streams.

package sighash

import (
	"bayeslsh/internal/snapshot"
)

// WriteSnapshot serializes the per-vector fill state: fill depth in
// bits, then the filled prefix as packed words.
func (s *Store) WriteSnapshot(w *snapshot.Writer) {
	w.U64(uint64(len(s.sigs)))
	for id := range s.sigs {
		fill := s.fill.Filled(int32(id))
		w.U32(uint32(fill))
		w.U64s(s.sigs[id][:(fill+63)/64])
	}
}

// ReadSnapshot restores fill state written by WriteSnapshot into a
// freshly constructed store over the same collection and family. It
// must run before the store is shared with concurrent readers.
func (s *Store) ReadSnapshot(r *snapshot.Reader) error {
	n := r.Len(12) // per vector: fill depth + word-count prefix
	if r.Err() == nil && n != len(s.sigs) {
		return snapshot.Failf(r, "store has %d vectors, snapshot %d", len(s.sigs), n)
	}
	low := s.fam.maxBits
	for id := 0; id < n; id++ {
		fill := int(r.U32())
		words := r.U64s()
		if r.Err() != nil {
			break
		}
		if fill < 0 || fill > s.fam.maxBits || len(words) != (fill+63)/64 {
			return snapshot.Failf(r, "vector %d: fill %d with %d words", id, fill, len(words))
		}
		copy(s.sigs[id], words)
		s.fill.Restore(int32(id), fill)
		low = min(low, fill)
	}
	if r.Err() == nil && n > 0 {
		s.fill.Raise(low)
	}
	return r.Err()
}
