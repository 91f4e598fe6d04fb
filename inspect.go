package bayeslsh

import (
	"encoding/binary"
	"fmt"
	"os"

	"bayeslsh/internal/diskidx"
	"bayeslsh/internal/snapshot"
)

// SnapshotSection describes one section of a snapshot file, as
// InspectFile reports it.
type SnapshotSection struct {
	Tag  uint32
	Name string // "meta", "vectors", ... ; "unknown" for foreign tags
	Off  int64  // payload byte offset in the file
	Len  int64  // payload length in bytes
	CRC  uint32 // per-section CRC-32C; 0 for v1/v2 (whole-file checksum)
}

// SnapshotInfo describes a snapshot file of any version without
// building a servable index from it — the surface behind "apss info".
type SnapshotInfo struct {
	Version  int
	Size     int64
	Sections []SnapshotSection

	// Decoded metadata and corpus shape.
	Measure   Measure
	Algorithm Algorithm
	Threshold float64
	Vectors   int
	Dim       int

	// Stats holds the corpus statistics persisted by stats-bearing
	// snapshots (the planner's input); Stats.Zero() reports true for
	// files written before stats persistence.
	Stats CorpusStats

	// Live describes a live (v2) snapshot's generation, whose base
	// segment Vectors counts; nil for v1 and v3 files.
	Live *LiveSnapshotInfo
}

// LiveSnapshotInfo is the generation state of a live snapshot, decoded
// from its live section.
type LiveSnapshotInfo struct {
	Delta      int // vectors in the delta segment
	Tombstones int // deleted ids on record
	Vectors    int // vectors a query can return: base and delta, less the deleted
}

// sectionNames maps the shared v1/v2/v3 section tags to display names.
var sectionNames = map[uint32]string{
	sectMeta:          "meta",
	sectVectors:       "vectors",
	sectBitStore:      "bit-store",
	sectMinStore:      "minhash-store",
	sectBitTables:     "bit-tables",
	sectMinhashTables: "minhash-tables",
	sectAllPairs:      "allpairs",
	sectLive:          "live",
}

func sectionName(tag uint32) string {
	if n, ok := sectionNames[tag]; ok {
		return n
	}
	return "unknown"
}

// InspectFile reads a snapshot file's structure — version, section
// table, corpus shape, metadata — verifying its integrity (the
// whole-file checksum for v1/v2, the header and every section checksum
// for v3) without constructing a servable index. It reads any version
// this build knows; errors follow the ReadIndex taxonomy
// (ErrSnapshotFormat, ErrSnapshotVersion, ErrSnapshotChecksum).
func InspectFile(path string) (*SnapshotInfo, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	v, err := fileVersion(path)
	if err != nil {
		return nil, err
	}
	switch v {
	case SnapshotVersion, LiveSnapshotVersion:
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return inspectStream(buf, v, fi.Size())
	case DiskSnapshotVersion:
		return inspectDisk(path, fi.Size())
	}
	return nil, versionError(v)
}

// inspectStream walks a v1/v2 stream snapshot's section framing (u32
// tag, u64 length, payload) after verifying the trailing whole-file
// checksum, decoding only the metadata and the vector section's
// dim/count header.
func inspectStream(buf []byte, version uint32, size int64) (*SnapshotInfo, error) {
	if _, err := checksummedBody(buf, version); err != nil {
		return nil, err
	}
	info := &SnapshotInfo{Version: int(version), Size: size}
	body := buf[:len(buf)-4]
	pos := len(snapshotMagic) + 4
	for pos < len(body) {
		if len(body)-pos < 12 {
			return nil, fmt.Errorf("%w: truncated section header at offset %d", ErrSnapshotFormat, pos)
		}
		tag := binary.LittleEndian.Uint32(body[pos:])
		ln := binary.LittleEndian.Uint64(body[pos+4:])
		pos += 12
		if ln > uint64(len(body)-pos) {
			return nil, fmt.Errorf("%w: section %d declares %d bytes, %d remain", ErrSnapshotFormat, tag, ln, len(body)-pos)
		}
		payload := body[pos : pos+int(ln)]
		info.Sections = append(info.Sections, SnapshotSection{
			Tag: tag, Name: sectionName(tag), Off: int64(pos), Len: int64(ln),
		})
		if err := info.decode(tag, payload, false); err != nil {
			return nil, err
		}
		pos += int(ln)
	}
	return info, nil
}

// inspectDisk reports a v3 container's section directory, verifying
// every section checksum, and decodes the metadata and flat-corpus
// header.
func inspectDisk(path string, size int64) (*SnapshotInfo, error) {
	f, err := diskidx.Open(path)
	if err != nil {
		return nil, mapDiskOpenErr(err)
	}
	defer f.Close()
	info := &SnapshotInfo{Version: DiskSnapshotVersion, Size: size}
	for _, s := range f.Sections() {
		info.Sections = append(info.Sections, SnapshotSection{
			Tag: s.Tag, Name: sectionName(s.Tag), Off: s.Off, Len: s.Len, CRC: s.CRC,
		})
		l, _ := f.Section(s.Tag)
		b, err := l.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotChecksum, err)
		}
		if err := info.decode(s.Tag, b, true); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// decode fills info's metadata and corpus shape from a meta, vectors
// or live section payload (other sections are left undecoded). Of the
// vectors section only the header is read: u32 dim, u64 count in a
// stream file; u32 dim, u32 pad, u64 count in a v3 file's flat
// columns. Of the live section the id state is read, not the delta
// vectors.
func (info *SnapshotInfo) decode(tag uint32, b []byte, flat bool) error {
	r := snapshot.NewReader(b)
	switch tag {
	case sectMeta:
		meta, err := readMeta(r)
		if err != nil {
			return fmt.Errorf("%w: meta: %v", ErrSnapshotFormat, err)
		}
		info.Measure, info.Algorithm, info.Threshold = meta.measure, meta.opts.Algorithm, meta.opts.Threshold
		info.Stats = meta.cstats
	case sectVectors:
		dim := r.U32()
		if flat {
			r.U32()
		}
		n := r.U64()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: vectors: %v", ErrSnapshotFormat, err)
		}
		info.Dim, info.Vectors = int(dim), int(n)
	case sectLive:
		ids, err := readLiveIDs(r, info.Vectors)
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return fmt.Errorf("%w: live: %v", ErrSnapshotFormat, err)
		}
		info.Live = &LiveSnapshotInfo{Delta: ids.memN, Tombstones: len(ids.tombs), Vectors: ids.vectors()}
	}
	return nil
}
