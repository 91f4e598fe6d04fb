// Disk-servable (v3) codec of the minhash store, mirroring
// sighash's: one uniform offline-computed depth, flat fixed-stride
// hash matrix, slice headers laid over the mapped section at open.

package minhash

import (
	"fmt"

	"bayeslsh/internal/shard"
	"bayeslsh/internal/snapshot"
)

// NewFixedStore serves minhashes computed offline: row id holds
// hashes [0, n) of vector id (typically aliasing a mapped snapshot
// section), every vector is marked filled to n, and there is no
// collection to hash from — demand beyond n is a programming error
// (the open path validates serving depths against the persisted one).
func NewFixedStore(fam *Family, sigs [][]uint32, n int) *Store {
	if n <= 0 || n > fam.Size() {
		panic("minhash: NewFixedStore needs a depth within the family")
	}
	s := &Store{fam: fam, blockSize: 32, sigs: sigs, fill: shard.NewFill(len(sigs))}
	for id := range sigs {
		s.fill.Restore(int32(id), n)
	}
	s.fill.Raise(n)
	return s
}

// WriteFixedSection serializes the store for disk serving: depth,
// vector count, then every signature's first n hashes as raw
// little-endian uint32s, fixed stride. Every vector must already be
// filled to n hashes.
func (s *Store) WriteFixedSection(w *snapshot.Writer, n int) {
	w.U32(uint32(n))
	w.U32(0) // pad, mirroring the bit store section header
	w.U64(uint64(len(s.sigs)))
	for id := range s.sigs {
		for _, v := range s.sigs[id][:n] {
			w.U32(v)
		}
	}
}

// OpenFixedSection lays row views over a WriteFixedSection payload,
// validated against the buffer's actual length.
func OpenFixedSection(buf []byte) (sigs [][]uint32, depth int, err error) {
	if len(buf) < 16 {
		return nil, 0, fmt.Errorf("%w: minhash store section %d bytes", snapshot.ErrCorrupt, len(buf))
	}
	r := snapshot.NewReader(buf)
	depth = int(r.U32())
	r.U32()
	n := r.U64()
	if depth <= 0 {
		return nil, 0, fmt.Errorf("%w: minhash store depth %d", snapshot.ErrCorrupt, depth)
	}
	body := buf[16:]
	if want := uint64(len(body) / (4 * depth)); n != want || len(body)%(4*depth) != 0 {
		return nil, 0, fmt.Errorf("%w: minhash store declares %d vectors × %d hashes in %d bytes",
			snapshot.ErrCorrupt, n, depth, len(body))
	}
	flat := snapshot.ViewU32s(body)
	sigs = make([][]uint32, n)
	for id := range sigs {
		sigs[id] = flat[id*depth : (id+1)*depth : (id+1)*depth]
	}
	return sigs, depth, nil
}
