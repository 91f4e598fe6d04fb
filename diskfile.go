package bayeslsh

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/diskidx"
	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/vector"
)

// Disk-servable snapshots (format version 3) serve queries in place.
// Where a v1/v2 snapshot is decoded front to back into heap structures
// at load, a v3 file is a page-aligned section container
// (internal/diskidx) whose sections are laid out exactly the way
// queries read them — the corpus as flat columns, signatures as
// fixed-stride matrices, band tables as sorted bucket runs, AllPairs
// postings delta+varint compressed — so LoadFile maps the file,
// lays read-only views over the mapping, and answers
// Query/TopK/QueryBatch bit-identically to the index that wrote it
// while the OS pages corpus bytes in on demand. Opening allocates
// section directories and per-row slice headers, never a copy of the
// corpus; each section's checksum (plus a deep structural walk) is
// verified once, when the first query touches it. See
// docs/PERSISTENCE.md for the layout and docs/TUNING.md for the
// heap-vs-mmap trade-off.

// DiskSnapshotVersion is the format version SaveFileV3 writes and
// LoadFile serves in place — the disk-servable container of
// internal/diskidx.
const DiskSnapshotVersion = diskidx.Version

// ErrDiskBacked reports a write of an index that serves from a mapped
// v3 file: its snapshot already exists — the file it is serving from —
// and its candidate structures have no heap form to re-encode. Copy
// the file instead.
var ErrDiskBacked = errors.New("bayeslsh: index serves from a disk snapshot; its file is the snapshot (copy it instead)")

// diskState ties a disk-backed Index to its mapped file: the section
// handles a query may touch, each guarded by a once-only
// checksum-plus-deep-validation step, and the close latch.
type diskState struct {
	f *diskidx.File

	vectors *diskSection
	sigs    *diskSection // the signature store of the engine's kind
	cands   *diskSection // band tables or AllPairs postings; nil for BruteForce
	all     []*diskSection

	closeOnce sync.Once
	closeErr  error
}

// diskSection is the first-touch state of one mapped section: the
// checksum pass and the structure-specific deep walk run once, and
// every later touch returns the cached verdict.
type diskSection struct {
	lz   *diskidx.Lazy
	deep func() error // full structural walk; nil when open validated everything
	once sync.Once
	err  error
}

func (s *diskSection) touch() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		if err := s.lz.Verify(); err != nil {
			s.err = fmt.Errorf("%w: %v", ErrSnapshotChecksum, err)
			return
		}
		if s.deep != nil {
			if err := s.deep(); err != nil {
				s.err = fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
			}
		}
	})
	return s.err
}

func (d *diskState) add(l *diskidx.Lazy, deep func() error) *diskSection {
	s := &diskSection{lz: l, deep: deep}
	d.all = append(d.all, s)
	return s
}

// ready verifies the sections a query of the given shape is about to
// read: the corpus, the candidate structure, and for threshold
// queries the signature matrix. nil for heap-resident indexes.
func (ix *Index) ready(topK bool) error {
	d := ix.disk
	if d == nil {
		return nil
	}
	if err := d.vectors.touch(); err != nil {
		return err
	}
	if err := d.cands.touch(); err != nil {
		return err
	}
	if topK {
		return nil // exact similarities only; corpus signatures unread
	}
	// The 1-bit pipeline verifies against a heap-packed copy built at
	// open (the section was verified then); every other verifier reads
	// the mapped rows.
	if ix.verify > 0 && !ix.packOneBit {
		return d.sigs.touch()
	}
	return nil
}

// readyAll verifies every section, for the merge path, which adopts
// signatures and aliases corpus bytes wholesale.
func (ix *Index) readyAll() error {
	d := ix.disk
	if d == nil {
		return nil
	}
	for _, s := range d.all {
		if err := s.touch(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the mapping of a disk-backed index (a no-op for
// heap-resident ones). No query may be in flight, and no index derived
// from this one — a LiveFrom live index, including any generation it
// merged, which aliases the mapped corpus bytes — may still be
// serving. Close is idempotent.
func (ix *Index) Close() error {
	d := ix.disk
	if d == nil {
		return nil
	}
	d.closeOnce.Do(func() { d.closeErr = d.f.Close() })
	return d.closeErr
}

// IndexMemStats reports an index's relationship to its backing
// snapshot file.
type IndexMemStats struct {
	// DiskBacked is true for an index LoadFile serves from a v3 file;
	// the byte counts below are zero otherwise.
	DiskBacked bool
	// MappedBytes is the size of the mapped snapshot file.
	MappedBytes int64
	// ResidentBytes estimates how much of the mapping is materialized
	// in RAM (the OS page-residency answer where available, otherwise
	// the bytes of every section touched so far).
	ResidentBytes int64
}

// MemStats reports the mapped and resident byte counts of a
// disk-backed index; the zero value for a heap-resident one.
func (ix *Index) MemStats() IndexMemStats {
	d := ix.disk
	if d == nil {
		return IndexMemStats{}
	}
	return IndexMemStats{
		DiskBacked:    true,
		MappedBytes:   d.f.MappedBytes(),
		ResidentBytes: d.f.ResidentBytes(),
	}
}

// MemStats reports the current base segment's MemStats: after a merge
// folds the delta into a heap base it reports DiskBacked false, even
// though the merged corpus may still alias mapped bytes (the mapping
// stays open regardless; see OpenLiveFile).
func (li *LiveIndex) MemStats() IndexMemStats {
	return li.gen.Load().base.MemStats()
}

// fillDepth is the uniform signature depth a v3 snapshot persists,
// deep enough for banding and verification (verifyDepth, the rule
// openDisk checks) that a disk-served index never hashes the corpus.
func (ix *Index) fillDepth() int {
	e := ix.engine()
	return e.sigs.align(max(ix.band, e.verifyDepth(ix.opts)))
}

// SaveFileV3 writes the index as a disk-servable (version 3) snapshot
// at path, atomically under the SaveFile contract. The write is the
// expensive side of the trade: every corpus signature is filled to the
// uniform persisted depth first (a disk-served index cannot hash), and
// the candidate structures are re-laid in probe order. An index that
// itself serves from a v3 file returns ErrDiskBacked — its file is the
// snapshot; copy it.
func (ix *Index) SaveFileV3(path string) error {
	if ix.disk != nil {
		return ErrDiskBacked
	}
	e := ix.engine()
	fill := ix.fillDepth()
	if fill > 0 {
		if err := e.sigs.sigStore().EnsureAllCtx(context.Background(), fill, e.workers()); err != nil {
			return err
		}
	}
	ap, _ := ix.ap.(*allpairs.Index)
	storeTag, tableTag := e.sigs.tags()

	return snapshot.WriteFile(path, func(f *os.File) error {
		fw := diskidx.NewFileWriter(f)
		fw.Section(sectMeta, func(sw *snapshot.Writer) {
			ix.writeMeta(sw)
			// The fill depths of the bit and the minhash store, in that
			// order: the other kind's is 0.
			for _, tag := range sigSections[:2] {
				if tag == storeTag {
					sw.U32(uint32(fill))
				} else {
					sw.U32(0)
				}
			}
		})
		fw.Section(sectVectors, e.ds.c.WriteFlat)
		if fill > 0 {
			fw.Section(storeTag, func(sw *snapshot.Writer) { e.sigs.sigStore().WriteFixedSection(sw, fill) })
		}
		if ix.tables != nil {
			fw.Section(tableTag, ix.tables.WriteFixedSection)
		}
		if ap != nil {
			fw.Section(sectAllPairs, ap.WriteFixedSection)
		}
		return fw.Finish()
	})
}

// mapDiskOpenErr translates container-open failures to the root
// package's snapshot error taxonomy.
func mapDiskOpenErr(err error) error {
	var ve *diskidx.VersionError
	if errors.As(err, &ve) {
		return versionError(ve.Found)
	}
	if errors.Is(err, snapshot.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	return err
}

// openDisk assembles a servable Index over an open v3 container, as
// decodeIndex does, with views over the mapping in place of heap
// structures. Only the metadata is verified here; every bulk section
// gets bounds checks now and its checksum plus deep walk on first
// touch.
func openDisk(f *diskidx.File) (*Index, error) {
	formatf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSnapshotFormat, fmt.Sprintf(format, args...))
	}
	for _, s := range f.Sections() {
		if s.Tag < sectMeta || s.Tag > sectAllPairs {
			return nil, formatf("unknown section tag %d", s.Tag)
		}
	}

	// Metadata: the one eagerly-verified section.
	ml, ok := f.Section(sectMeta)
	if !ok {
		return nil, formatf("no meta section")
	}
	if err := ml.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotChecksum, err)
	}
	mb, err := ml.Raw()
	if err != nil {
		return nil, formatf("meta: %v", err)
	}
	mr := snapshot.NewReader(mb)
	meta, err := readMeta(mr)
	if err != nil {
		return nil, formatf("meta: %v", err)
	}
	fills := [2]int{int(mr.U32()), int(mr.U32())} // bits, then minhashes
	if err := mr.Err(); err != nil {
		return nil, formatf("meta: %v", err)
	}
	if mr.Remaining() != 0 {
		return nil, formatf("meta: %d trailing bytes", mr.Remaining())
	}

	// Corpus: slice headers over the mapped columns. The set measures
	// binarize the corpus inside NewEngine — dereferencing every vector
	// byte right now — so for them the section's first touch is here;
	// for Cosine it stays with the first query.
	vl, ok := f.Section(sectVectors)
	if !ok {
		return nil, formatf("no vector section")
	}
	vb, err := vl.Raw()
	if err != nil {
		return nil, formatf("vectors: %v", err)
	}
	coll, err := vector.OpenFlat(vb)
	if err != nil {
		return nil, formatf("vectors: %v", err)
	}
	n := len(coll.Vecs)

	d := &diskState{f: f}
	d.vectors = d.add(vl, coll.Validate)
	if _, binary, _ := newSigKind(meta.measure, nil); binary { // readMeta checked the measure
		if err := d.vectors.touch(); err != nil {
			return nil, err
		}
	}
	eng, err := NewEngine(&Dataset{c: coll}, meta.measure, meta.cfg)
	if err != nil {
		return nil, formatf("%v", err)
	}

	// cstats stays zero for pre-stats v3 files: recomputing would scan
	// (and fault in) the whole mapped corpus, defeating lazy serving.
	ix := meta.index(eng)
	ix.disk = d

	// A store or table section of the other kind, or a fill depth
	// declared for its store, is refused.
	storeTag, tableTag := eng.sigs.tags()
	var fill int
	for i, tag := range sigSections {
		_, ok := f.Section(tag)
		switch {
		case tag == storeTag:
			fill = fills[i]
		case tag == tableTag:
		case ok:
			return nil, formatf("%s section in a %v index", sectionName(tag), meta.measure)
		case i < len(fills) && fills[i] != 0:
			return nil, formatf("meta declares a %d-deep %s section in a %v index", fills[i], sectionName(tag), meta.measure)
		}
	}
	if fill > maxSnapshotHashes || eng.sigs.align(fill) != fill {
		return nil, formatf("signature fill depth %d out of range", fill)
	}

	// Signature matrix: a fixed store whose rows alias the mapping,
	// filled to the persisted depth; the checks below guarantee nothing
	// asks deeper (a fixed store cannot hash).
	if l, ok := f.Section(storeTag); ok {
		if fill == 0 {
			return nil, formatf("%s section without a declared fill depth", sectionName(storeTag))
		}
		b, err := l.Raw()
		if err != nil {
			return nil, formatf("%s: %v", sectionName(storeTag), err)
		}
		if err := eng.sigs.openFixed(b, n, fill); err != nil {
			return nil, formatf("%v", err)
		}
		d.sigs = d.add(l, nil)
	} else if fill != 0 {
		return nil, formatf("meta declares %d %s, no %s section", fill, eng.sigs.unit(), sectionName(storeTag))
	}

	// Candidate structures: views probing the mapped bytes in place.
	var tablesSect, apSect *diskSection
	if l, ok := f.Section(tableTag); ok {
		b, err := l.Raw()
		if err != nil {
			return nil, formatf("band tables: %v", err)
		}
		if ix.tables, err = eng.sigs.openTables(b, n); err != nil {
			return nil, formatf("%v", err)
		}
		tablesSect = d.add(l, ix.tables.Validate)
	}
	if l, ok := f.Section(sectAllPairs); ok {
		b, err := l.Raw()
		if err != nil {
			return nil, formatf("AllPairs postings: %v", err)
		}
		v, err := allpairs.OpenView(b)
		if err != nil {
			return nil, formatf("%v", err)
		}
		if v.Len() != n {
			return nil, formatf("AllPairs postings cover %d vectors, corpus has %d", v.Len(), n)
		}
		ix.ap = v
		apSect = d.add(l, v.Validate)
	}
	// The generator decides what a query probes (Index.candidates), and
	// wire refuses the structure it does not read.
	p, _ := meta.opts.Algorithm.pipeline()
	switch p.gen {
	case genAllPairs:
		d.cands = apSect
	case genLSH:
		d.cands = tablesSect
	}

	// Verification reads verifyDepth hashes, which a fixed store must
	// already hold.
	if need := eng.verifyDepth(meta.opts); need > fill {
		return nil, formatf("verification needs %d %s, snapshot persists %d", need, eng.sigs.unit(), fill)
	}
	if p.ver.bayes() && eng.sigs.oneBit(meta.opts) {
		// wire packs every mapped minhash row into the 1-bit heap copy:
		// that read is the section's first touch.
		if err := d.sigs.touch(); err != nil {
			return nil, err
		}
	}

	if err := ix.wire(context.Background()); err != nil {
		return nil, formatf("%v", err)
	}
	return ix, nil
}

// OpenLiveFile opens any snapshot version as a live index: a version-2
// file loads its saved generation (as ReadLiveIndex does), and a
// version-1 or version-3 file opens as a base with an empty delta
// (LoadFile, then LiveFrom) — the serving layer's one entry point for
// restoring a shard from whatever snapshot the builder produced. For a
// version-3 base the mapping stays open for the life of the process:
// merged generations alias the mapped corpus bytes, so there is no
// safe point to unmap while the live index exists.
func OpenLiveFile(path string, lc LiveConfig) (*LiveIndex, error) {
	v, err := fileVersion(path)
	if err != nil {
		return nil, err
	}
	if v != LiveSnapshotVersion {
		ix, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		return LiveFrom(ix, lc)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readStream(buf, LiveSnapshotVersion, lc.decodeLive)
}
