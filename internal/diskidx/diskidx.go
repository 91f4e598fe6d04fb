// Package diskidx implements the disk-servable snapshot container
// (format version 3): a page-aligned section file that an index can
// serve from in place. Unlike the v1/v2 stream formats — which are
// decoded front to back into heap structures behind a whole-file
// checksum — a v3 file carries a fixed-size header with a section
// directory (tag, offset, length, CRC-32C per section), every section
// starts on a 4 KiB page boundary, and payload bytes are read lazily:
// opening a file costs O(header), and each section's checksum is
// verified once, on first touch, when a query first needs it.
//
// The container is deliberately dumb: it knows offsets, lengths and
// checksums, not what the sections mean. The section payload codecs
// live with the structures they serve (internal/vector,
// internal/lshindex, internal/allpairs, ...) and the root package
// assembles them into a servable index.
package diskidx

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"bayeslsh/internal/snapshot"
)

const (
	// Magic begins every snapshot file, shared with the v1/v2 formats
	// so version sniffing works across all of them.
	Magic = "BLSHSNAP"
	// Version is the disk-servable format version.
	Version = 3
	// PageSize aliases the codec layer's section alignment unit.
	PageSize = snapshot.PageSize

	// maxSections keeps the header (magic + version + count + directory
	// + header CRC) inside the first page.
	maxSections = (PageSize - headerFixed - 4) / sectionEntrySize

	headerFixed      = len(Magic) + 4 + 4 // magic, version, section count
	sectionEntrySize = 32                 // tag, pad, off, len, crc, pad
)

// Section is one directory entry: a tagged, page-aligned byte range
// with its own CRC-32C.
type Section struct {
	Tag uint32
	Off int64
	Len int64
	CRC uint32
}

// VersionError reports a file that carries the snapshot magic but a
// format version other than 3, so callers can route v1/v2 files to
// the stream decoders. It is a version mismatch, not corruption;
// callers match it with errors.As.
type VersionError struct {
	Found uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("diskidx: snapshot version %d, this package reads %d", e.Found, Version)
}

// File is an open disk-servable snapshot. All methods are safe for
// concurrent use; section bytes are immutable for the life of the
// File. Close releases the mapping — the caller must guarantee no
// section slice obtained from this File is used afterwards.
type File struct {
	m     mapping
	size  int64
	sects []Section
	lazy  []lazySection
}

// lazySection tracks the two lazy steps of serving a section: loading
// its bytes (a zero-copy subslice under mmap, a pread under the
// fallback) and verifying its checksum on first touch.
type lazySection struct {
	load      sync.Once
	data      []byte
	loadErr   error
	verify    sync.Once
	verifyErr error
}

// Open opens path as a disk-servable snapshot: it maps the file
// (or arranges pread access under the apss_nommap build tag or on
// platforms without mmap), parses and CRC-checks the header page, and
// validates the section directory — offsets page-aligned, in file
// bounds, strictly ordered and non-overlapping, tags unique. No
// section payload is read, verified or decoded here.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m, err := openMapping(f, st.Size())
	// openMapping owns f from here on both paths.
	if err != nil {
		return nil, err
	}
	df, err := newFile(m, st.Size())
	if err != nil {
		m.close()
		return nil, err
	}
	return df, nil
}

// OpenBytes opens an in-memory v3 image — the test and fuzz entry
// point, sharing every validation step with Open.
func OpenBytes(data []byte) (*File, error) {
	return newFile(byteMapping(data), int64(len(data)))
}

func newFile(m mapping, size int64) (*File, error) {
	hn := size
	if hn > PageSize {
		hn = PageSize
	}
	hdr, err := m.slice(0, hn)
	if err != nil {
		return nil, err
	}
	sects, err := parseHeader(hdr, size)
	if err != nil {
		return nil, err
	}
	return &File{m: m, size: size, sects: sects, lazy: make([]lazySection, len(sects))}, nil
}

func parseHeader(hdr []byte, size int64) ([]Section, error) {
	if len(hdr) < headerFixed+4 || string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: missing magic", snapshot.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(Magic):]); v != Version {
		return nil, &VersionError{Found: v}
	}
	// Bound the count before converting it: int(0xFFFFFFFF) is -1 where
	// int is 32 bits wide.
	count := binary.LittleEndian.Uint32(hdr[len(Magic)+4:])
	if count > uint32(maxSections) {
		return nil, fmt.Errorf("%w: %d sections exceeds header page capacity %d", snapshot.ErrCorrupt, count, maxSections)
	}
	n := int(count)
	end := headerFixed + n*sectionEntrySize
	if len(hdr) < end+4 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes for %d sections)", snapshot.ErrCorrupt, len(hdr), n)
	}
	if got, want := snapshot.Checksum(hdr[:end]), binary.LittleEndian.Uint32(hdr[end:]); got != want {
		return nil, fmt.Errorf("%w: header checksum %08x, stored %08x", snapshot.ErrCorrupt, got, want)
	}
	sects := make([]Section, n)
	prevEnd := int64(PageSize)
	seen := make(map[uint32]bool, n)
	for i := range sects {
		e := hdr[headerFixed+i*sectionEntrySize:]
		s := Section{
			Tag: binary.LittleEndian.Uint32(e),
			Off: int64(binary.LittleEndian.Uint64(e[8:])),
			Len: int64(binary.LittleEndian.Uint64(e[16:])),
			CRC: binary.LittleEndian.Uint32(e[24:]),
		}
		switch {
		case s.Tag == 0 || seen[s.Tag]:
			return nil, fmt.Errorf("%w: section %d: tag %d zero or duplicate", snapshot.ErrCorrupt, i, s.Tag)
		case s.Off%PageSize != 0:
			return nil, fmt.Errorf("%w: section %d at offset %d not page-aligned", snapshot.ErrCorrupt, i, s.Off)
		case s.Off < prevEnd:
			return nil, fmt.Errorf("%w: section %d at offset %d overlaps previous end %d", snapshot.ErrCorrupt, i, s.Off, prevEnd)
		case s.Len < 0 || s.Len > size-s.Off:
			return nil, fmt.Errorf("%w: section %d declares %d bytes at offset %d in a %d-byte file", snapshot.ErrCorrupt, i, s.Len, s.Off, size)
		}
		seen[s.Tag] = true
		prevEnd = s.Off + s.Len
		sects[i] = s
	}
	return sects, nil
}

// Sections returns a copy of the section directory, in file order.
func (f *File) Sections() []Section {
	out := make([]Section, len(f.sects))
	copy(out, f.sects)
	return out
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// Lazy is a handle on one section, deferring byte access and checksum
// verification until first use.
type Lazy struct {
	f *File
	i int
}

// Section returns the handle for tag, or false if the file has no
// such section (absent candidate structures are simply not written).
func (f *File) Section(tag uint32) (*Lazy, bool) {
	for i, s := range f.sects {
		if s.Tag == tag {
			return &Lazy{f: f, i: i}, true
		}
	}
	return nil, false
}

// Meta returns the directory entry of the section.
func (l *Lazy) Meta() Section { return l.f.sects[l.i] }

// Raw returns the section's bytes without checksum verification: the
// open path uses it to lay slice headers over the mapping before any
// page is faulted in. Callers must Verify before trusting a byte of
// the content.
func (l *Lazy) Raw() ([]byte, error) {
	ls := &l.f.lazy[l.i]
	ls.load.Do(func() {
		s := l.f.sects[l.i]
		ls.data, ls.loadErr = l.f.m.slice(s.Off, s.Len)
	})
	return ls.data, ls.loadErr
}

// Verify checks the section's CRC-32C, once; later calls return the
// cached verdict. This is the "first touch" of the lazy contract —
// under mmap it faults in the section's pages sequentially.
func (l *Lazy) Verify() error {
	ls := &l.f.lazy[l.i]
	ls.verify.Do(func() {
		data, err := l.Raw()
		if err != nil {
			ls.verifyErr = err
			return
		}
		s := l.f.sects[l.i]
		if got := snapshot.Checksum(data); got != s.CRC {
			ls.verifyErr = fmt.Errorf("%w: section %d checksum %08x, stored %08x",
				snapshot.ErrCorrupt, s.Tag, got, s.CRC)
		}
	})
	return ls.verifyErr
}

// Bytes returns the section's bytes after checksum verification.
func (l *Lazy) Bytes() ([]byte, error) {
	if err := l.Verify(); err != nil {
		return nil, err
	}
	return l.Raw()
}

// Close releases the mapping or file handle. Not safe to call while
// queries may still read section slices.
func (f *File) Close() error { return f.m.close() }

// MappedBytes returns the bytes addressable through the mapping (the
// file size under mmap).
func (f *File) MappedBytes() int64 { return f.m.mapped() }

// ResidentBytes estimates how many mapped bytes are materialized in
// RAM: the OS's page-residency answer where available (mincore),
// otherwise the bytes of every section touched so far.
func (f *File) ResidentBytes() int64 {
	if r := f.m.resident(); r >= 0 {
		return r
	}
	var n int64
	for i := range f.lazy {
		ls := &f.lazy[i]
		if ls.data != nil {
			n += int64(len(ls.data))
		}
	}
	return n + PageSize // header page
}

// mapping abstracts how section bytes reach memory: an mmap region
// (zero-copy subslices, lazy page-in) or a pread fallback (each
// section heap-read once, on first touch).
type mapping interface {
	slice(off, n int64) ([]byte, error)
	mapped() int64
	resident() int64 // -1 when the platform cannot answer
	close() error
}

// byteMapping serves an in-memory image (OpenBytes).
type byteMapping []byte

func (b byteMapping) slice(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(b)) {
		return nil, fmt.Errorf("%w: slice [%d,%d) outside %d-byte image", snapshot.ErrCorrupt, off, off+n, len(b))
	}
	return b[off : off+n : off+n], nil
}

func (b byteMapping) mapped() int64   { return int64(len(b)) }
func (b byteMapping) resident() int64 { return int64(len(b)) }
func (b byteMapping) close() error    { return nil }
