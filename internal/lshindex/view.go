// The one layout of the band tables, in memory and on disk: each band
// is a sorted bucket run — a sorted key array, a cumulative-end
// directory, and one delta+varint-compressed id blob — probed by binary
// search over the keys. The v3 band section is these runs verbatim,
// so OpenBitsView / OpenMinhashView serve straight from the mapped
// bytes, and tables built in memory or decoded from a v1/v2 stream
// hold the same runs in heap slices. A probe decodes each probed run
// straight into a pooled id-set, which deduplicates across runs.
//
// Section layout (offsets relative to the section start, which is
// page- and therefore 8-aligned):
//
//	u32 k, u32 l, u32 flags (bit 0: multi-probe), u32 pad
//	dir    l × u64  band block offsets, each 8-aligned
//	per band block:
//	  u64 nb                      bucket count
//	  keys  nb × u64              sorted ascending band keys
//	  ends  nb × u64              cumulative byte ends of the id runs
//	  ids   delta+varint runs     bucket i's ids at [ends[i-1], ends[i])
//	  zero padding to 8 bytes
package lshindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/snapshot"
)

const viewHeader = 16

// bandRun is one band's sorted bucket run: keys ascending, bucket i's
// ids delta+varint-encoded at blob[ends[i-1]:ends[i]]. The slices view
// mapped section bytes or own heap memory; either way they are never
// written after the run is built.
type bandRun struct {
	keys []uint64
	ends []uint64
	blob []byte
}

// add appends bucket key, holding ids (ascending and non-empty), after
// the run's last bucket; keys must be added in ascending order.
func (b *bandRun) add(key uint64, ids []int32) {
	b.keys = append(b.keys, key)
	b.blob = snapshot.AppendDeltaI32s(b.blob, ids)
	b.ends = append(b.ends, uint64(len(b.blob)))
}

// addBucket adds the ids of bucket key, if present, to set. The run
// must be valid (Validate, or built in memory), so it decodes without
// error paths; ids are still bounds-checked against the corpus of n,
// so a mapping changed underneath us panics instead of growing the set
// without bound.
func (b *bandRun) addBucket(set *pair.IDSet, key uint64, n int) {
	i, found := slices.BinarySearch(b.keys, key)
	if !found {
		return
	}
	run := b.blob[b.start(i):b.ends[i]]
	// The run's extent bounds its ids, so the leading count is skipped.
	// The first id is coded from 0, every later one from its
	// predecessor, so one running sum decodes them all.
	_, off := binary.Uvarint(run)
	if off <= 0 {
		badRun(i)
	}
	var id, d uint64
	var shift uint
	for _, c := range run[off:] {
		d |= uint64(c&0x7f) << shift
		if c >= 0x80 {
			shift += 7
			continue
		}
		if id += d; id >= uint64(n) {
			badRun(i)
		}
		set.Add(int32(id))
		d, shift = 0, 0
	}
	if shift != 0 {
		badRun(i)
	}
}

// badRun reports a bucket run that failed to decode after validation.
// Validate walked every run on first touch, so the mapping changed
// underneath us.
func badRun(i int) {
	panic(fmt.Sprintf("lshindex: validated bucket run %d failed to decode", i))
}

// start returns the byte offset of bucket i's run.
func (b *bandRun) start(i int) uint64 {
	if i == 0 {
		return 0
	}
	return b.ends[i-1]
}

// bucket appends bucket i's ids to dst.
func (b *bandRun) bucket(i int, dst []int32, n int) []int32 {
	dst, _, err := snapshot.DecodeDeltaI32s(dst, b.blob[b.start(i):b.ends[i]], int32(n))
	if err != nil {
		panic(fmt.Sprintf("lshindex: validated bucket run %d failed to decode: %v", i, err))
	}
	return dst
}

// validate walks every bucket run once — strictly ascending keys,
// monotone ends, every id run decodable with ids inside the corpus —
// so probes can decode without error paths.
func (b *bandRun) validate(band, n int) error {
	var prevKey uint64
	var prevEnd uint64
	scratch := make([]int32, 0, 64)
	for i := range b.keys {
		if i > 0 && b.keys[i] <= prevKey {
			return fmt.Errorf("%w: band %d: bucket keys not ascending at %d", snapshot.ErrCorrupt, band, i)
		}
		prevKey = b.keys[i]
		end := b.ends[i]
		if end < prevEnd || end > uint64(len(b.blob)) {
			return fmt.Errorf("%w: band %d: run end %d after %d (blob %d)", snapshot.ErrCorrupt, band, end, prevEnd, len(b.blob))
		}
		ids, used, err := snapshot.DecodeDeltaI32s(scratch[:0], b.blob[prevEnd:end], int32(n))
		if err != nil {
			return fmt.Errorf("band %d bucket %d: %w", band, i, err)
		}
		if uint64(used) != end-prevEnd {
			return fmt.Errorf("%w: band %d bucket %d: %d stray bytes", snapshot.ErrCorrupt, band, i, end-prevEnd-uint64(used))
		}
		if len(ids) == 0 {
			return fmt.Errorf("%w: band %d bucket %d: empty bucket", snapshot.ErrCorrupt, band, i)
		}
		prevEnd = end
	}
	if prevEnd != uint64(len(b.blob)) {
		return fmt.Errorf("%w: band %d: %d bytes after last run", snapshot.ErrCorrupt, band, uint64(len(b.blob))-prevEnd)
	}
	return nil
}

// writeFixed serializes the runs as a band section.
func (t *runTables) writeFixed(w *snapshot.Writer, flags uint32) {
	w.U32(uint32(t.k))
	w.U32(uint32(t.l))
	w.U32(flags)
	w.U32(0)
	off := uint64(viewHeader + 8*len(t.bands))
	for _, b := range t.bands {
		w.U64(off)
		size := uint64(8 + 16*len(b.keys) + len(b.blob))
		off += (size + 7) / 8 * 8
	}
	for _, b := range t.bands {
		w.U64(uint64(len(b.keys)))
		for _, key := range b.keys {
			w.U64(key)
		}
		for _, end := range b.ends {
			w.U64(end)
		}
		w.Raw(b.blob)
		w.Pad(8)
	}
}

// openRuns lays tables over a band section for a corpus of n vectors,
// accepting band widths k in [1, maxK], and returns them with the
// section's flags. Shape and extents (directory offsets, array bounds)
// are checked here; Validate walks the runs, on first touch with the
// checksum.
func openRuns(buf []byte, n, maxK int) (runTables, uint32, error) {
	if len(buf) < viewHeader {
		return runTables{}, 0, fmt.Errorf("%w: band section %d bytes", snapshot.ErrCorrupt, len(buf))
	}
	r := snapshot.NewReader(buf)
	k, l, flags := int(r.U32()), int(r.U32()), r.U32()
	if k < 1 || k > maxK || l < 1 {
		return runTables{}, 0, fmt.Errorf("%w: band shape k=%d l=%d", snapshot.ErrCorrupt, k, l)
	}
	if uint64(len(buf)) < uint64(viewHeader)+8*uint64(l) {
		return runTables{}, 0, fmt.Errorf("%w: band section %d bytes for %d bands", snapshot.ErrCorrupt, len(buf), l)
	}
	dir := snapshot.ViewU64s(buf[viewHeader : viewHeader+8*l])
	bands := make([]bandRun, l)
	for bi := range bands {
		off := dir[bi]
		end := uint64(len(buf))
		if bi+1 < l {
			end = dir[bi+1]
		}
		if off%8 != 0 || off < uint64(viewHeader+8*l) || off+8 > end || end > uint64(len(buf)) {
			return runTables{}, 0, fmt.Errorf("%w: band %d block [%d, %d) out of place", snapshot.ErrCorrupt, bi, off, end)
		}
		nb := snapshot.ViewU64s(buf[off : off+8])[0]
		span := end - off - 8
		if nb > span/16 {
			return runTables{}, 0, fmt.Errorf("%w: band %d: %d buckets in %d bytes", snapshot.ErrCorrupt, bi, nb, span)
		}
		keysOff := off + 8
		endsOff := keysOff + 8*nb
		blobOff := endsOff + 8*nb
		b := bandRun{
			keys: snapshot.ViewU64s(buf[keysOff:endsOff]),
			ends: snapshot.ViewU64s(buf[endsOff:blobOff]),
		}
		blobLen := uint64(0)
		if nb > 0 {
			blobLen = b.ends[nb-1]
		}
		if blobLen > end-blobOff {
			return runTables{}, 0, fmt.Errorf("%w: band %d: id blob %d bytes, %d available", snapshot.ErrCorrupt, bi, blobLen, end-blobOff)
		}
		b.blob = buf[blobOff : blobOff+blobLen : blobOff+blobLen]
		bands[bi] = b
	}
	return runTables{k: k, l: l, n: n, bands: bands}, flags, nil
}

// WriteFixedSection serializes the tables as a v3 band section.
func (t *BitsTables) WriteFixedSection(w *snapshot.Writer) {
	flags := uint32(0)
	if t.multiProbe {
		flags = 1
	}
	t.writeFixed(w, flags)
}

// OpenBitsView lays tables over a WriteFixedSection payload for a
// corpus of n vectors.
func OpenBitsView(buf []byte, n int) (*BitsView, error) {
	t, flags, err := openRuns(buf, n, 64)
	if err != nil {
		return nil, err
	}
	return &BitsTables{runTables: t, multiProbe: flags&1 != 0}, nil
}

// WriteFixedSection serializes the tables as a v3 band section.
func (t *MinhashTables) WriteFixedSection(w *snapshot.Writer) {
	t.writeFixed(w, 0)
}

// OpenMinhashView lays tables over a WriteFixedSection payload for a
// corpus of n vectors, as OpenBitsView does.
func OpenMinhashView(buf []byte, n int) (*MinhashView, error) {
	t, _, err := openRuns(buf, n, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return &MinhashTables{t}, nil
}
