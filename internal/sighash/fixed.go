// Disk-servable (v3) codec of the bit-signature store. Where the v1
// stream codec persists per-vector fill depths and is decoded into a
// heap store, the v3 section is a flat fixed-stride matrix: every
// vector's signature prefix computed offline to one uniform depth and
// laid out for sequential scan, so an open can lay slice headers over
// the mapped section and serve without hashing a single corpus
// vector.

package sighash

import (
	"fmt"

	"bayeslsh/internal/shard"
	"bayeslsh/internal/snapshot"
)

// NewFixedStore serves signatures computed offline: row id holds bits
// [0, nbits) of vector id's signature (typically aliasing a mapped
// snapshot section), every vector is marked filled to nbits, and the
// store has no collection to hash from — demand beyond nbits is a
// programming error (the open path validates that no serving
// configuration needs deeper prefixes than were persisted). nbits
// must be a positive multiple of 64; each row must hold at least
// nbits/64 words.
func NewFixedStore(fam *BlockFamily, sigs [][]uint64, nbits int) *Store {
	if nbits <= 0 || nbits%64 != 0 || nbits > fam.maxBits {
		panic("sighash: NewFixedStore needs a word-aligned depth within the family")
	}
	s := &Store{fam: fam, sigs: sigs, fill: shard.NewFill(len(sigs))}
	for id := range sigs {
		s.fill.Restore(int32(id), nbits)
	}
	s.fill.Raise(nbits)
	return s
}

// WriteFixedSection serializes the store for disk serving: depth,
// vector count, then every signature's first nbits bits as raw
// little-endian words, fixed stride, no per-row framing. Every vector
// must already be filled to nbits (the save path pre-fills).
func (s *Store) WriteFixedSection(w *snapshot.Writer, nbits int) {
	w.U32(uint32(nbits))
	w.U32(0) // pad: keeps the word matrix 8-aligned in the section
	w.U64(uint64(len(s.sigs)))
	words := nbits / 64
	for id := range s.sigs {
		for _, v := range s.sigs[id][:words] {
			w.U64(v)
		}
	}
}

// OpenFixedSection lays row views over a WriteFixedSection payload:
// sigs[id] aliases the buffer (zero-copy on little-endian platforms)
// and holds exactly nbits/64 words. Structure is validated against
// the buffer's actual length, so a hostile section cannot cause
// over-allocation; content integrity is the section checksum's job.
func OpenFixedSection(buf []byte) (sigs [][]uint64, nbits int, err error) {
	if len(buf) < 16 {
		return nil, 0, fmt.Errorf("%w: bit store section %d bytes", snapshot.ErrCorrupt, len(buf))
	}
	r := snapshot.NewReader(buf)
	nbits = int(r.U32())
	r.U32()
	n := r.U64()
	if nbits <= 0 || nbits%64 != 0 {
		return nil, 0, fmt.Errorf("%w: bit store depth %d not a positive word multiple", snapshot.ErrCorrupt, nbits)
	}
	words := nbits / 64
	body := buf[16:]
	if want := uint64(len(body) / (8 * words)); n != want || len(body)%(8*words) != 0 {
		return nil, 0, fmt.Errorf("%w: bit store declares %d vectors × %d words in %d bytes",
			snapshot.ErrCorrupt, n, words, len(body))
	}
	flat := snapshot.ViewU64s(body)
	sigs = make([][]uint64, n)
	for id := range sigs {
		sigs[id] = flat[id*words : (id+1)*words : (id+1)*words]
	}
	return sigs, nbits, nil
}
