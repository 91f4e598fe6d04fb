package bayeslsh

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/diskidx"
	"bayeslsh/internal/planner"
	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/stats"
	"bayeslsh/internal/vector"
)

// Index snapshots split the pipeline the way production serving does:
// build the index once, offline, where the hashing and table
// construction cost is paid; snapshot it; and let any number of
// serving processes load the snapshot and answer queries immediately,
// surviving restarts without a rebuild. A snapshot carries everything
// a query touches — the corpus, the resolved options, the lazily
// filled signature prefixes, the LSH band tables or AllPairs inverted
// index, and the fitted Jaccard prior — so a loaded Index serves
// Query/TopK/QueryBatch results bit-identical to the Index that wrote
// it, at any Parallelism and BatchSize (see docs/PERSISTENCE.md for
// the format and the guarantees).
//
// The format is versioned and checksummed: little-endian throughout,
// an 8-byte magic, a format version, tagged length-prefixed sections
// encoded by explicit per-type codecs (no reflection, no gob), and a
// trailing CRC-32C of the whole file.

// snapshotMagic begins every index snapshot.
const snapshotMagic = "BLSHSNAP"

// SnapshotVersion is the format version Index.WriteTo writes. Readers
// accept exactly the versions they know; the magic and version fields
// are fixed for all time, so any future version still reports a clean
// ErrSnapshotVersion from older builds.
const SnapshotVersion = 1

// LiveSnapshotVersion is the format version LiveIndex.WriteTo writes:
// the version-1 section sequence over the base segment, followed by
// one live section carrying the generation state (id map, tombstones,
// delta vectors). A version-2 file is not a valid version-1 file and
// vice versa — a loader handed a version it does not read names the
// entry points that do (versionError).
const LiveSnapshotVersion = 2

// Section tags of the version-1 layout, in file order. Version 2
// appends sectLive after them.
const (
	sectMeta uint32 = iota + 1
	sectVectors
	sectBitStore
	sectMinStore
	sectBitTables
	sectMinhashTables
	sectAllPairs
	sectLive
)

// sigSections are the signature store and band table sections of both
// signature kinds, in file order: an index writes its own kind's two
// (sigKind.tags), and no reader accepts the other kind's.
var sigSections = [...]uint32{sectBitStore, sectMinStore, sectBitTables, sectMinhashTables}

var (
	// ErrSnapshotFormat reports input that is not a readable index
	// snapshot: wrong magic, a malformed or truncated section, or
	// structurally inconsistent contents.
	ErrSnapshotFormat = errors.New("bayeslsh: not a readable index snapshot")
	// ErrSnapshotVersion reports a snapshot written by a format version
	// this build does not read.
	ErrSnapshotVersion = errors.New("bayeslsh: unsupported snapshot version")
	// ErrSnapshotChecksum reports a snapshot whose CRC-32C does not
	// match its contents — truncation or corruption in storage.
	ErrSnapshotChecksum = errors.New("bayeslsh: snapshot checksum mismatch")
)

// WriteTo serializes the index as a snapshot. It implements
// io.WriterTo. The writer is not buffered internally; wrap files in a
// bufio.Writer (SaveFile does). An index LoadFile serves from a mapped
// v3 file returns ErrDiskBacked: that file is already the snapshot.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.disk != nil {
		return 0, ErrDiskBacked
	}
	sw := snapshot.NewWriter(w)
	sw.Raw([]byte(snapshotMagic))
	sw.U32(SnapshotVersion)
	ix.writeSections(sw)
	return sw.Sum()
}

// writeSections writes the version-1 section sequence — the base-index
// half shared by Index.WriteTo (version 1) and LiveIndex.WriteTo
// (version 2, which appends a live section after these).
func (ix *Index) writeSections(sw *snapshot.Writer) {
	e := ix.engine()
	// WriteTo guards the disk-backed case with ErrDiskBacked, so the
	// AllPairs source is the heap index (or nothing) here.
	ap, _ := ix.ap.(*allpairs.Index)
	sw.Section(sectMeta, ix.writeMeta)
	sw.Section(sectVectors, e.ds.c.WriteSnapshot)
	storeTag, tableTag := e.sigs.tags()
	for _, tag := range sigSections {
		sw.Section(tag, func(s *snapshot.Writer) {
			switch {
			case tag == storeTag:
				s.Bool(e.sigs.built())
				if e.sigs.built() {
					e.sigs.sigStore().WriteSnapshot(s)
				}
			case tag == tableTag && ix.tables != nil:
				s.Bool(true)
				ix.tables.WriteSnapshot(s)
			default:
				s.Bool(false)
			}
		})
	}
	sw.Section(sectAllPairs, func(s *snapshot.Writer) {
		s.Bool(ap != nil)
		if ap != nil {
			ap.WriteSnapshot(s)
		}
	})
}

// writeMeta serializes the scalar state: measure, engine config (minus
// the runtime knobs Parallelism and BatchSize, which belong to the
// serving process), the resolved options, build statistics and the
// fitted prior.
func (ix *Index) writeMeta(w *snapshot.Writer) {
	e := ix.engine()
	w.U8(uint8(e.measure))
	cfg := e.cfg
	w.U64(cfg.Seed)
	w.U32(uint32(cfg.SignatureBits))
	w.U32(uint32(cfg.MinHashes))
	// Reserved, always false: the exact-projection flag of earlier
	// builds, which readMeta refuses when set.
	w.Bool(false)
	o := ix.opts
	w.U8(uint8(o.Algorithm))
	w.F64(o.Threshold)
	w.F64(o.Epsilon)
	w.F64(o.Delta)
	w.F64(o.Gamma)
	w.U32(uint32(o.K))
	w.U32(uint32(o.LiteHashes))
	w.U32(uint32(o.MaxHashes))
	w.U32(uint32(o.PriorSample))
	w.Bool(o.OneBitMinhash)
	w.U32(uint32(o.BandK))
	w.Bool(o.MultiProbe)
	w.F64(o.FalseNegativeRate)
	w.U32(uint32(o.ApproxHashes))
	st := ix.stats
	w.U32(uint32(st.Tables))
	w.U32(uint32(st.BandK))
	w.U64(uint64(st.PriorCandidates))
	w.I64(int64(st.BuildTime))
	w.F64(ix.prior.Alpha)
	w.F64(ix.prior.Beta)
	// Corpus statistics, a fixed-size 88-byte block that readMeta
	// detects by size alone: a v3 file writes 8 bytes of fill depths
	// after the meta, so a pre-stats v3 file leaves exactly 8 bytes
	// after the prior and a stats-bearing one 96. A future meta field
	// must keep the discipline: fixed size, appended after this block.
	cs := ix.cstats
	w.I64(int64(cs.Vectors))
	w.I64(int64(cs.Dim))
	w.I64(cs.Nnz)
	w.F64(cs.AvgLen)
	w.I64(int64(cs.MedianLen))
	w.I64(int64(cs.P90Len))
	w.I64(int64(cs.MaxLen))
	w.F64(cs.LenCV)
	w.F64(cs.Density)
	w.F64(cs.TopDFFrac)
	w.F64(cs.HeavyFrac)
}

// corpusStatsBytes is the encoded size of the writeMeta stats block.
const corpusStatsBytes = 11 * 8

// snapMeta is the decoded counterpart of writeMeta.
type snapMeta struct {
	measure Measure
	cfg     EngineConfig
	opts    Options
	stats   IndexStats
	prior   stats.Beta
	cstats  CorpusStats
}

// index returns the unwired index the metadata describes, served by
// eng: the shared start of decodeIndex and openDisk.
func (m snapMeta) index(eng *Engine) *Index {
	ix := &Index{opts: m.opts, stats: m.stats, prior: m.prior, cstats: m.cstats}
	ix.plan = Plan{Pipeline: planner.Pipeline(m.opts.Algorithm)}
	ix.eng.Store(eng)
	return ix
}

// maxSnapshotHashes caps the signature budgets (checkBudgets), so a
// corrupt (but checksum-passing) snapshot cannot demand absurd
// allocations before decoding fails.
const maxSnapshotHashes = 1 << 24

func readMeta(r *snapshot.Reader) (snapMeta, error) {
	var m snapMeta
	m.measure = Measure(r.U8())
	m.cfg = EngineConfig{
		Seed:          r.U64(),
		SignatureBits: int(r.U32()),
		MinHashes:     int(r.U32()),
	}
	exactProjections := r.Bool()
	m.opts = Options{
		Algorithm:         Algorithm(r.U8()),
		Threshold:         r.F64(),
		Epsilon:           r.F64(),
		Delta:             r.F64(),
		Gamma:             r.F64(),
		K:                 int(r.U32()),
		LiteHashes:        int(r.U32()),
		MaxHashes:         int(r.U32()),
		PriorSample:       int(r.U32()),
		OneBitMinhash:     r.Bool(),
		BandK:             int(r.U32()),
		MultiProbe:        r.Bool(),
		FalseNegativeRate: r.F64(),
		ApproxHashes:      int(r.U32()),
	}
	m.stats = IndexStats{
		Tables:          int(r.U32()),
		BandK:           int(r.U32()),
		PriorCandidates: int(r.U64()),
	}
	m.stats.BuildTime = time.Duration(r.I64())
	m.prior = stats.Beta{Alpha: r.F64(), Beta: r.F64()}
	// The corpus-stats block is optional (snapshots written before the
	// planner existed omit it) and detected by its fixed size — see
	// writeMeta for why size, not mere presence of bytes, is the test.
	if r.Err() == nil && r.Remaining() >= corpusStatsBytes {
		m.cstats = CorpusStats{
			Vectors:   int(r.I64()),
			Dim:       int(r.I64()),
			Nnz:       r.I64(),
			AvgLen:    r.F64(),
			MedianLen: int(r.I64()),
			P90Len:    int(r.I64()),
			MaxLen:    int(r.I64()),
			LenCV:     r.F64(),
			Density:   r.F64(),
			TopDFFrac: r.F64(),
			HeavyFrac: r.F64(),
		}
		if r.Err() == nil && (m.cstats.Vectors < 0 || m.cstats.Nnz < 0 || m.cstats.MaxLen < 0) {
			return m, snapshot.Failf(r, "negative corpus stats %+v", m.cstats)
		}
	}
	if err := r.Err(); err != nil {
		return m, err
	}
	kind, _, err := newSigKind(m.measure, nil)
	if err != nil {
		return m, snapshot.Failf(r, "unknown measure %d", int(m.measure))
	}
	if p, err := m.opts.Algorithm.pipeline(); err != nil || p.gen == genPPJoin {
		return m, snapshot.Failf(r, "algorithm %d has no query-serving index", int(m.opts.Algorithm))
	}
	if err := m.cfg.checkBudgets(); err != nil {
		return m, snapshot.Failf(r, "%v", err)
	}
	// A file written with float64 projections holds signatures no
	// family of this build regenerates; hashing its queries with the
	// quantized rows would silently change their bits.
	if exactProjections {
		return m, snapshot.Failf(r, "exact projections flag set; this build hashes with quantized projections only")
	}
	if _, err := m.opts.withDefaults(kind); err != nil {
		return m, snapshot.Failf(r, "options: %v", err)
	}
	if !m.prior.Valid() {
		return m, snapshot.Failf(r, "invalid prior %v", m.prior)
	}
	return m, nil
}

// ReadIndex loads a version-1 index snapshot written by WriteTo and
// returns a ready-to-serve Index. The runtime knobs
// EngineConfig.Parallelism and BatchSize are not part of a snapshot;
// the loaded index uses their defaults (all CPUs, default batch).
// Results served by the loaded index are bit-identical to the index
// that wrote the snapshot.
//
// Errors distinguish the failure: ErrSnapshotFormat for input that is
// not a snapshot or is structurally broken, ErrSnapshotVersion for a
// format version ReadIndex does not read (naming the entry points that
// do), ErrSnapshotChecksum for corruption.
func ReadIndex(r io.Reader) (*Index, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bayeslsh: reading snapshot: %w", err)
	}
	return readStream(buf, SnapshotVersion, decodeIndex)
}

// snapshotReaders is the version table: for each format version this
// build reads, what a file of that version holds and the entry points
// that read it. InspectFile reads every version listed. Every
// ErrSnapshotVersion message is built from this table by versionError.
var snapshotReaders = [...]struct {
	holds   string
	readers []string
}{
	SnapshotVersion:     {"a base index", []string{"LoadFile", "ReadIndex", "OpenLiveFile"}},
	LiveSnapshotVersion: {"a live index", []string{"OpenLiveFile", "ReadLiveIndex"}},
	DiskSnapshotVersion: {"a disk-servable base index", []string{"LoadFile", "OpenLiveFile"}},
}

// versionError reports a snapshot of format version found handed to an
// entry point that does not read it, naming the entry points that do.
func versionError(found uint32) error {
	if found > 0 && found < uint32(len(snapshotReaders)) {
		r := snapshotReaders[found]
		return fmt.Errorf("%w: found version %d (%s); read it with %s",
			ErrSnapshotVersion, found, r.holds, strings.Join(r.readers, ", "))
	}
	var known []string
	for v, r := range snapshotReaders[1:] {
		known = append(known, fmt.Sprintf("%d (%s)", v+1, strings.Join(r.readers, ", ")))
	}
	return fmt.Errorf("%w: found version %d; this build reads versions %s",
		ErrSnapshotVersion, found, strings.Join(known, ", "))
}

// snapshotVersion reads the prologue every format shares — the magic,
// then the u32 format version — from the head of a snapshot buffer or
// file.
func snapshotVersion(r io.ReaderAt) (uint32, error) {
	var pro [len(snapshotMagic) + 4]byte
	if _, err := r.ReadAt(pro[:], 0); err != nil || string(pro[:len(snapshotMagic)]) != snapshotMagic {
		return 0, fmt.Errorf("%w: missing magic", ErrSnapshotFormat)
	}
	return binary.LittleEndian.Uint32(pro[len(snapshotMagic):]), nil
}

// fileVersion is snapshotVersion of the file at path.
func fileVersion(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return snapshotVersion(f)
}

// readStream decodes a whole stream snapshot (version 1 or 2) held in
// memory — the prologue ReadIndex, ReadLiveIndex, LoadFile and
// OpenLiveFile share: the version must be want, the trailing CRC-32C
// must match, and decode must consume every section.
func readStream[T any](buf []byte, want uint32, decode func(*snapshot.Reader) (T, error)) (T, error) {
	var zero T
	sr, err := checksummedBody(buf, want)
	if err != nil {
		return zero, err
	}
	x, err := decode(sr)
	if err == nil && sr.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes after sections", sr.Remaining())
	}
	if err != nil {
		return zero, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	return x, nil
}

// checksummedBody checks a stream snapshot's prologue against format
// version want, verifies the trailing CRC-32C, and returns a reader
// positioned after the prologue.
func checksummedBody(buf []byte, want uint32) (*snapshot.Reader, error) {
	v, err := snapshotVersion(bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	if v != want {
		return nil, versionError(v)
	}
	if len(buf) < len(snapshotMagic)+8 {
		return nil, fmt.Errorf("%w: truncated before checksum", ErrSnapshotFormat)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if snapshot.Checksum(body) != binary.LittleEndian.Uint32(tail) {
		return nil, ErrSnapshotChecksum
	}
	return snapshot.NewReader(body[len(snapshotMagic)+4:]), nil
}

// decodeIndex decodes the version-1 section sequence and wires the
// index as a fresh build is (Index.wire), with the persisted prior. It
// leaves any bytes after the known sections (a version-2 live section)
// unread; callers check Remaining.
func decodeIndex(sr *snapshot.Reader) (*Index, error) {
	mr := sr.Section(sectMeta)
	meta, err := readMeta(mr)
	if err != nil {
		return nil, err
	}
	if err := mr.Close(); err != nil {
		return nil, err
	}

	vr := sr.Section(sectVectors)
	coll, err := vector.ReadCollectionSnapshot(vr)
	if err != nil {
		return nil, err
	}
	if err := vr.Close(); err != nil {
		return nil, err
	}

	eng, err := NewEngine(&Dataset{c: coll}, meta.measure, meta.cfg)
	if err != nil {
		return nil, err
	}
	ix := meta.index(eng)
	if ix.cstats.Zero() {
		// A snapshot written before stats persistence: the corpus is
		// already resident, so collecting now is the same O(nnz) pass a
		// fresh build pays, and keeps old goldens fully featured.
		ix.cstats = eng.corpusPlanner().Stats()
	}

	storeTag, tableTag := eng.sigs.tags()
	for _, tag := range sigSections {
		r := sr.Section(tag)
		if r.Bool() {
			switch tag {
			case storeTag:
				err = eng.sigs.sigStore().ReadSnapshot(r)
			case tableTag:
				ix.tables, err = eng.sigs.readTables(r, len(coll.Vecs))
			default:
				err = fmt.Errorf("%s section in a %v index", sectionName(tag), meta.measure)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	ar := sr.Section(sectAllPairs)
	if ar.Bool() {
		ix.ap, err = allpairs.ReadIndexSnapshot(ar, coll,
			toExactMeasure(meta.measure), meta.opts.Threshold)
		if err != nil {
			return nil, err
		}
	}
	if err := ar.Close(); err != nil {
		return nil, err
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}

	if err := ix.wire(context.Background()); err != nil {
		return nil, err
	}
	return ix, nil
}

// wire derives an index's serving state from its options, candidate
// structure, prior and engine — the one place a build, a load, an open
// and a prior refit decide how the pipeline runs. It checks that the
// index holds the candidate structure its generator probes and no
// other, records the banding depth, and prepares verification.
func (ix *Index) wire(ctx context.Context) error {
	e, o := ix.engine(), ix.opts
	p, err := o.Algorithm.pipeline()
	if err != nil {
		return err
	}
	ix.pipe = p
	if has, reads := ix.ap != nil, p.gen == genAllPairs; has != reads {
		return fmt.Errorf("algorithm %v reads an AllPairs index section: %v, has one: %v", o.Algorithm, reads, has)
	}
	if has, reads := ix.tables != nil, p.gen == genLSH; has != reads {
		return fmt.Errorf("algorithm %v reads a band table section: %v, has one: %v", o.Algorithm, reads, has)
	}
	if ix.tables != nil {
		// The banding depth must fit the signature budget, or the first
		// query would ask the family for more hashes than it has.
		ix.band = ix.tables.BandK() * ix.tables.Bands()
		if max := e.sigs.budget(); ix.band > max {
			return fmt.Errorf("band tables need %d %s, signature budget is %d", ix.band, e.sigs.unit(), max)
		}
	}
	switch p.ver {
	case verBayes, verLite:
		vq, err := e.bayesVerifier(ctx, o, ix.prior)
		if err != nil {
			return err
		}
		ix.vq, ix.verify = vq, vq.Params().MaxHashes
		ix.packOneBit = e.sigs.oneBit(o)
	case verApprox:
		_, n, err := e.approxEstimator(ctx, o)
		if err != nil {
			return err
		}
		ix.approxN, ix.verify = n, n
	}
	return nil
}

// SetRuntime sets the runtime knobs a snapshot deliberately omits —
// EngineConfig.Parallelism and BatchSize, normalized under the same
// rule as engine construction (0 selects the adaptive default,
// negative clamps to 1; see docs/TUNING.md). They shard QueryBatch and
// any lazy signature fills; results are bit-identical at every
// setting.
//
// SetRuntime is safe against concurrent queries: the new knobs are
// published as an atomically-swapped engine view, queries load the
// view per engine access, and every view shares the same dataset and
// signature stores — so a query overlapping the call runs each of its
// phases under one of the two settings, both of which produce the
// identical result set.
//
// The knobs apply to this index only: an index built from a live
// Engine detaches onto its own engine view first, so the engine the
// caller still holds — and any sibling Index sharing it — keeps its
// configured Parallelism and BatchSize. The detached view shares the
// dataset and signature stores, so no hashing is repaid.
func (ix *Index) SetRuntime(parallelism, batchSize int) {
	own := *ix.engine() // shallow copy: shares dataset, work view and stores
	own.cfg.Parallelism = parallelism
	own.cfg.BatchSize = batchSize
	own.cfg = own.cfg.withDefaults()
	ix.eng.Store(&own)
}

// SaveFile writes the index as a version-1 snapshot to path
// atomically: the bytes go to a temporary file in the same directory,
// which replaces path only after a successful, synced write — a
// serving fleet never observes a half-written snapshot. The snapshot
// keeps the permissions of the file it replaces (0644 for a fresh
// one), so builder and serving processes can run as different users.
func (ix *Index) SaveFile(path string) error {
	return snapshot.WriteFile(path, writeBuffered(ix))
}

// writeBuffered is the snapshot.WriteFile body of both SaveFiles: wt's
// stream through a 1 MiB buffer.
func writeBuffered(wt io.WriterTo) func(*os.File) error {
	return func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		if _, err := wt.WriteTo(bw); err != nil {
			return err
		}
		return bw.Flush()
	}
}

// LoadFile opens a base-index snapshot file of either format. A
// version-1 file (SaveFile) decodes into the heap. A version-3 file
// (SaveFileV3) is served in place: the index maps the file (or, under
// the apss_nommap build tag and on platforms without mmap, reads each
// section once with pread) and lays read-only views over it. Opening
// it reads the section directory and the scalar metadata; corpus
// bytes, signatures and postings stay on disk until queries touch
// them, and each section is checksum-verified and structurally
// validated exactly once, at that first touch — a failure surfaces on
// the query as ErrSnapshotChecksum or ErrSnapshotFormat. A mapped
// index serves queries and LiveFrom but cannot be re-saved
// (ErrDiskBacked): its file is the snapshot. Call Close when no query
// or derived live index needs it anymore.
//
// Either way results are bit-identical to the saving index. Errors
// follow ReadIndex; a live (version-2) snapshot reports
// ErrSnapshotVersion naming OpenLiveFile.
func LoadFile(path string) (*Index, error) {
	v, err := fileVersion(path)
	if err != nil {
		return nil, err
	}
	if v == DiskSnapshotVersion {
		f, err := diskidx.Open(path)
		if err != nil {
			return nil, mapDiskOpenErr(err)
		}
		ix, err := openDisk(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return ix, nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readStream(buf, SnapshotVersion, decodeIndex)
}

// WriteTo serializes the live index as a version-2 snapshot: the base
// segment exactly as Index.WriteTo writes it, then one live section —
// the external-id map, the tombstone set, and the delta segment's raw
// vectors (delta signatures are recomputed on load from the persisted
// seed, bit-identically, rather than stored). WriteTo takes a
// consistent cut of the generation state and then encodes without
// blocking queries or mutations. It implements io.WriterTo.
func (li *LiveIndex) WriteTo(w io.Writer) (int64, error) {
	li.mu.Lock()
	gen := li.gen.Load()
	view := gen.mem.View(gen.memN)
	tombIDs := li.tombs.IDs(gen.nextID())
	li.mu.Unlock()
	if gen.base.disk != nil {
		// A disk-backed base has no heap structures to re-encode and its
		// v3 file is already durable. After the first merge the base is
		// an ordinary heap index and saving works again.
		return 0, fmt.Errorf("%w (the base still serves from its v3 file; Compact with pending changes first)", ErrDiskBacked)
	}

	sw := snapshot.NewWriter(w)
	sw.Raw([]byte(snapshotMagic))
	sw.U32(LiveSnapshotVersion)
	gen.base.writeSections(sw)
	sw.Section(sectLive, func(s *snapshot.Writer) {
		s.U64(uint64(gen.start))
		s.U64(uint64(gen.memN))
		ids := make([]uint64, len(gen.baseIDs))
		for i, ext := range gen.baseIDs {
			ids[i] = uint64(ext)
		}
		s.U64s(ids)
		ts := make([]uint64, len(tombIDs))
		for i, id := range tombIDs {
			ts[i] = uint64(id)
		}
		s.U64s(ts)
		mc := vector.Collection{Dim: li.dim, Vecs: view.Raw}
		mc.WriteSnapshot(s)
	})
	return sw.Sum()
}

// SaveFile writes the live snapshot to path atomically, under the
// Index.SaveFile contract. Combined with the consistent cut WriteTo
// takes, periodic SaveFile calls from a serving process give
// crash-consistent durability: a loader always sees some complete
// generation.
func (li *LiveIndex) SaveFile(path string) error {
	return snapshot.WriteFile(path, writeBuffered(li))
}

// ReadLiveIndex loads a live-index snapshot written by
// LiveIndex.WriteTo and returns a ready-to-serve LiveIndex under the
// given merge policy (which, like the runtime knobs, is serving-
// process configuration and not part of a snapshot). The loaded index
// serves queries bit-identical to the one that wrote the snapshot and
// accepts Add/Delete continuing the saved id sequence.
//
// Errors follow ReadIndex: ErrSnapshotFormat, ErrSnapshotVersion
// (naming ReadIndex when handed a base-index snapshot), or
// ErrSnapshotChecksum.
func ReadLiveIndex(r io.Reader, lc LiveConfig) (*LiveIndex, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bayeslsh: reading snapshot: %w", err)
	}
	return readStream(buf, LiveSnapshotVersion, lc.decodeLive)
}

// maxLiveIDs caps the external-id space a live snapshot may declare:
// the tombstone bitset and the id map scale with it, so a corrupt (but
// checksum-passing) file must not be able to demand absurd
// allocations. 2^27 ids matches vector.MaxSnapshotDim's scale and is
// far beyond what the in-memory index serves.
const maxLiveIDs = 1 << 27

// liveIDs is the id state a live section records: the first id of
// the delta segment, the delta's length, the base vectors' external
// ids and the deleted ids, both ascending.
type liveIDs struct {
	start, memN int
	base, tombs []int
}

// readLiveIDs reads the id state at the head of a live section and
// checks it: an id space within maxLiveIDs, an id map of baseLen
// increasing ids below start, and tombstones increasing below
// start+memN. A read error stays on lr for the caller to find.
func readLiveIDs(lr *snapshot.Reader, baseLen int) (liveIDs, error) {
	rawStart, rawMemN := lr.U64(), lr.U64()
	// The bound is checked on the raw values: converting first would
	// drop their high word where int is 32 bits wide.
	if lr.Err() == nil && (rawStart > maxLiveIDs || rawMemN > maxLiveIDs-rawStart) {
		return liveIDs{}, snapshot.Failf(lr, "live section id space start=%d memN=%d out of range", rawStart, rawMemN)
	}
	ids := liveIDs{start: int(rawStart), memN: int(rawMemN)}
	rawBase := lr.U64s() // length validated against remaining bytes
	if lr.Err() == nil && len(rawBase) != baseLen {
		return liveIDs{}, snapshot.Failf(lr, "live id map covers %d vectors, base has %d", len(rawBase), baseLen)
	}
	var err error
	if ids.base, err = increasingIDs(lr, rawBase, ids.start, "live id map"); err != nil {
		return liveIDs{}, err
	}
	if ids.tombs, err = increasingIDs(lr, lr.U64s(), ids.start+ids.memN, "tombstone ids"); err != nil {
		return liveIDs{}, err
	}
	return ids, nil
}

// increasingIDs converts raw to ids, failing lr unless they increase
// strictly and stay below limit.
func increasingIDs(lr *snapshot.Reader, raw []uint64, limit int, what string) ([]int, error) {
	ids := make([]int, 0, len(raw))
	prev := -1
	for i, v := range raw {
		id := int(v)
		if v > maxLiveIDs || id <= prev || id >= limit {
			return nil, snapshot.Failf(lr, "%s not increasing below %d at entry %d", what, limit, i)
		}
		ids = append(ids, id)
		prev = id
	}
	return ids, nil
}

// masks reports whether tombstone id takes a vector away: it names a
// delta vector or a base vector still in the id map (the ids of
// vectors a merge dropped stay on record too).
func (ids *liveIDs) masks(id int) bool {
	_, inBase := slices.BinarySearch(ids.base, id)
	return inBase || id >= ids.start
}

// vectors counts the vectors a query can return: base and delta, less
// the deleted.
func (ids *liveIDs) vectors() int {
	n := len(ids.base) + ids.memN
	for _, id := range ids.tombs {
		if ids.masks(id) {
			n--
		}
	}
	return n
}

// decodeLive decodes a version-2 section sequence into a live index
// under the merge policy lc: the base index, then the live section,
// whose delta vectors pass Add's admission checks and replay through
// Add's ingest path, bit-identical to the saved delta.
func (lc LiveConfig) decodeLive(sr *snapshot.Reader) (*LiveIndex, error) {
	ix, err := decodeIndex(sr)
	if err != nil {
		return nil, err
	}
	lr := sr.Section(sectLive)
	ids, err := readLiveIDs(lr, ix.Len())
	if err != nil {
		return nil, err
	}
	mc, err := vector.ReadCollectionSnapshot(lr)
	if err != nil {
		return nil, err
	}
	if err := lr.Close(); err != nil {
		return nil, err
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if sr.Remaining() != 0 {
		// readStream checks this too, but only after decode returns: the
		// live index built below owns a merge goroutine that a late
		// error would leak.
		return nil, fmt.Errorf("%d trailing bytes after sections", sr.Remaining())
	}
	if mc.Dim != ix.engine().ds.c.Dim {
		return nil, fmt.Errorf("delta dimensionality %d, base is %d", mc.Dim, ix.engine().ds.c.Dim)
	}
	if len(mc.Vecs) != ids.memN {
		return nil, fmt.Errorf("live section declares %d delta vectors, carries %d", ids.memN, len(mc.Vecs))
	}
	for i, v := range mc.Vecs {
		if err := ix.admit(Vec{v: v}); err != nil {
			return nil, fmt.Errorf("delta vector %d: %w", i, err)
		}
	}

	li := newLiveOver(ix, lc, ids.base, ids.start)
	gen := li.gen.Load()
	for _, v := range mc.Vecs {
		gen.mem.Append(li.prepareEntry(ix, Vec{v: v}))
	}
	ng := *gen
	ng.memN = ids.memN
	li.gen.Store(&ng)
	li.liveCount = ids.vectors()
	for _, id := range ids.tombs {
		li.tombs.Set(id)
		if ids.masks(id) {
			li.dead++
			if gen.dead != nil {
				// Prior-bearing pipelines read the generation-pinned
				// mask; rebuild it from the present tombstones.
				gen.dead[id] = struct{}{}
			}
		}
	}
	return li, nil
}
