// Disk-servable (v3) band tables. The v1 stream codec decodes buckets
// into per-band Go maps; the v3 section instead persists each band as
// a sorted bucket run — a sorted key array, a cumulative-end
// directory, and one delta+varint-compressed id blob — and BitsView /
// MinhashView probe it in place by binary search over the mapped
// bytes. A probe decodes each probed run into pooled scratch and
// deduplicates the runs in the same pooled id-set as the heap tables,
// so the two serve bit-identical candidates, ascending.
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
	"fmt"
	"slices"

	"bayeslsh/internal/snapshot"
)

// BitsSource generates candidates from a probed bit signature: the
// heap BitsTables and the mapped BitsView implement it identically.
type BitsSource interface {
	Bands() int
	BandK() int
	Probe(sig []uint64) []int32
}

// MinhashSource is BitsSource for minhash signatures.
type MinhashSource interface {
	Bands() int
	BandK() int
	Probe(sig []uint32) []int32
}

const viewHeader = 16

// bandRun is one band's sorted bucket run, viewed in place.
type bandRun struct {
	keys []uint64
	ends []uint64
	blob []byte
}

// lookup appends bucket key's ids (if present) to dst.
func (b *bandRun) lookup(key uint64, dst []int32, n int) []int32 {
	i, found := slices.BinarySearch(b.keys, key)
	if !found {
		return dst
	}
	start := uint64(0)
	if i > 0 {
		start = b.ends[i-1]
	}
	dst, _, err := snapshot.DecodeDeltaI32s(dst, b.blob[start:b.ends[i]], int32(n))
	if err != nil {
		// Validate walked every run on first touch; a failure here means
		// the mapping changed underneath us.
		panic(fmt.Sprintf("lshindex: validated bucket run failed to decode: %v", err))
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

// writeFixedBuckets serializes per-band sorted bucket runs.
func writeFixedBuckets(w *snapshot.Writer, k, l int, flags uint32, tables []map[uint64][]int32) {
	w.U32(uint32(k))
	w.U32(uint32(l))
	w.U32(flags)
	w.U32(0)
	type band struct {
		keys []uint64
		ends []uint64
		blob []byte
	}
	bands := make([]band, len(tables))
	off := uint64(viewHeader + 8*len(tables))
	for bi, buckets := range tables {
		b := band{keys: make([]uint64, 0, len(buckets))}
		for key := range buckets {
			//apsslint:allow mapiter keys are sorted below; map order never reaches the stream
			b.keys = append(b.keys, key)
		}
		slices.Sort(b.keys)
		for _, key := range b.keys {
			b.blob = snapshot.AppendDeltaI32s(b.blob, buckets[key])
			b.ends = append(b.ends, uint64(len(b.blob)))
		}
		bands[bi] = b
		w.U64(off)
		size := uint64(8 + 16*len(b.keys) + len(b.blob))
		off += (size + 7) / 8 * 8
	}
	for _, b := range bands {
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

// openFixedBuckets lays band views over a writeFixedBuckets payload.
// Bounds are validated here (directory offsets, array extents); the
// full run walk is validate, run on first touch with the checksum.
func openFixedBuckets(buf []byte, l, n int) ([]bandRun, error) {
	if uint64(len(buf)) < uint64(viewHeader)+8*uint64(l) {
		return nil, fmt.Errorf("%w: band section %d bytes for %d bands", snapshot.ErrCorrupt, len(buf), l)
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
			return nil, fmt.Errorf("%w: band %d block [%d, %d) out of place", snapshot.ErrCorrupt, bi, off, end)
		}
		nb := snapshot.ViewU64s(buf[off : off+8])[0]
		span := end - off - 8
		if nb > span/16 {
			return nil, fmt.Errorf("%w: band %d: %d buckets in %d bytes", snapshot.ErrCorrupt, bi, nb, span)
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
			return nil, fmt.Errorf("%w: band %d: id blob %d bytes, %d available", snapshot.ErrCorrupt, bi, blobLen, end-blobOff)
		}
		b.blob = buf[blobOff : blobOff+blobLen : blobOff+blobLen]
		bands[bi] = b
	}
	return bands, nil
}

// BitsView serves probes straight from a mapped v3 band section,
// answering identically to the BitsTables that wrote it.
type BitsView struct {
	k, l       int
	multiProbe bool
	n          int
	bands      []bandRun
}

// WriteFixedSection serializes the tables as sorted bucket runs.
func (t *BitsTables) WriteFixedSection(w *snapshot.Writer) {
	flags := uint32(0)
	if t.multiProbe {
		flags = 1
	}
	writeFixedBuckets(w, t.k, t.l, flags, t.tables)
}

// OpenBitsView lays a view over a WriteFixedSection payload for a
// corpus of n vectors.
func OpenBitsView(buf []byte, n int) (*BitsView, error) {
	if len(buf) < viewHeader {
		return nil, fmt.Errorf("%w: band section %d bytes", snapshot.ErrCorrupt, len(buf))
	}
	r := snapshot.NewReader(buf)
	t := &BitsView{k: int(r.U32()), l: int(r.U32()), multiProbe: r.U32()&1 != 0, n: n}
	if t.k < 1 || t.k > 64 || t.l < 1 {
		return nil, fmt.Errorf("%w: band shape k=%d l=%d", snapshot.ErrCorrupt, t.k, t.l)
	}
	var err error
	if t.bands, err = openFixedBuckets(buf, t.l, n); err != nil {
		return nil, err
	}
	return t, nil
}

// Bands returns the number of tables l.
func (t *BitsView) Bands() int { return t.l }

// BandK returns the number of bits per band.
func (t *BitsView) BandK() int { return t.k }

// Validate walks every bucket run (first-touch deep check).
func (t *BitsView) Validate() error {
	for bi := range t.bands {
		if err := t.bands[bi].validate(bi, t.n); err != nil {
			return err
		}
	}
	return nil
}

// Probe mirrors BitsTables.Probe over the mapped runs: same band
// keys, same multi-probe neighborhood, same dedup'd ascending result.
// Each band's runs are decoded into the pooled probe scratch and
// deduplicated in its id-set, so the result is the one allocation.
func (t *BitsView) Probe(sig []uint64) []int32 {
	s := probePool.Get().(*probeScratch)
	for band := 0; band < t.l; band++ {
		key := bitsBand(sig, band*t.k, t.k)
		s.buf = t.bands[band].lookup(key, s.buf[:0], t.n)
		if t.multiProbe {
			for b := 0; b < t.k; b++ {
				s.buf = t.bands[band].lookup(key^(1<<b), s.buf, t.n)
			}
		}
		s.ids.AddAll(s.buf)
	}
	return s.release()
}

// MinhashView is BitsView for minhash band tables.
type MinhashView struct {
	k, l  int
	n     int
	bands []bandRun
}

// WriteFixedSection serializes the tables as sorted bucket runs.
func (t *MinhashTables) WriteFixedSection(w *snapshot.Writer) {
	writeFixedBuckets(w, t.k, t.l, 0, t.tables)
}

// OpenMinhashView lays a view over a WriteFixedSection payload for a
// corpus of n vectors.
func OpenMinhashView(buf []byte, n int) (*MinhashView, error) {
	if len(buf) < viewHeader {
		return nil, fmt.Errorf("%w: band section %d bytes", snapshot.ErrCorrupt, len(buf))
	}
	r := snapshot.NewReader(buf)
	t := &MinhashView{k: int(r.U32()), l: int(r.U32()), n: n}
	if t.k < 1 || t.l < 1 {
		return nil, fmt.Errorf("%w: band shape k=%d l=%d", snapshot.ErrCorrupt, t.k, t.l)
	}
	var err error
	if t.bands, err = openFixedBuckets(buf, t.l, n); err != nil {
		return nil, err
	}
	return t, nil
}

// Bands returns the number of tables l.
func (t *MinhashView) Bands() int { return t.l }

// BandK returns the number of minhashes per band.
func (t *MinhashView) BandK() int { return t.k }

// Validate walks every bucket run (first-touch deep check).
func (t *MinhashView) Validate() error {
	for bi := range t.bands {
		if err := t.bands[bi].validate(bi, t.n); err != nil {
			return err
		}
	}
	return nil
}

// Probe mirrors MinhashTables.Probe over the mapped runs, with
// BitsView.Probe's pooled scratch.
func (t *MinhashView) Probe(sig []uint32) []int32 {
	s := probePool.Get().(*probeScratch)
	words := s.keyWords(t.k)
	for band := 0; band < t.l; band++ {
		s.buf = t.bands[band].lookup(minhashBandKey(sig, band, t.k, words), s.buf[:0], t.n)
		s.ids.AddAll(s.buf)
	}
	return s.release()
}
