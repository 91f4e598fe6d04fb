package diskidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bayeslsh/internal/snapshot"
)

// writeImage builds a v3 file with the given sections and returns its
// bytes and path.
func writeImage(t *testing.T, sections map[uint32][]byte, tags []uint32) ([]byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v3.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFileWriter(f)
	for _, tag := range tags {
		payload := sections[tag]
		fw.Section(tag, func(sw *snapshot.Writer) { sw.Raw(payload) })
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, path
}

func TestRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xab, 0xcd}, 3000) // spans two pages
	data, path := writeImage(t, map[uint32][]byte{
		1: []byte("meta"),
		2: big,
		3: {},
	}, []uint32{1, 2, 3})

	for name, open := range map[uint32]func() (*File, error){
		0: func() (*File, error) { return Open(path) },
		1: func() (*File, error) { return OpenBytes(data) },
	} {
		f, err := open()
		if err != nil {
			t.Fatalf("open %d: %v", name, err)
		}
		if got := len(f.Sections()); got != 3 {
			t.Fatalf("%d sections", got)
		}
		for tag, want := range map[uint32][]byte{1: []byte("meta"), 2: big, 3: {}} {
			lz, ok := f.Section(tag)
			if !ok {
				t.Fatalf("section %d missing", tag)
			}
			got, err := lz.Bytes()
			if err != nil {
				t.Fatalf("section %d: %v", tag, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("section %d: %d bytes, want %d", tag, len(got), len(want))
			}
			if lz.Meta().Off%PageSize != 0 {
				t.Fatalf("section %d at unaligned offset %d", tag, lz.Meta().Off)
			}
		}
		if _, ok := f.Section(9); ok {
			t.Fatal("phantom section 9")
		}
		if f.MappedBytes() < 0 || f.ResidentBytes() < 0 {
			t.Fatalf("negative byte stats: mapped %d resident %d", f.MappedBytes(), f.ResidentBytes())
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLazyVerification(t *testing.T) {
	data, _ := writeImage(t, map[uint32][]byte{1: []byte("head"), 2: []byte("payload")}, []uint32{1, 2})

	// Flip one payload byte of section 2: open still succeeds (header
	// is intact), section 1 still serves, section 2 fails on first
	// touch and keeps failing.
	corrupt := bytes.Clone(data)
	f0, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	lz, _ := f0.Section(2)
	corrupt[lz.Meta().Off] ^= 0xff
	f, err := OpenBytes(corrupt)
	if err != nil {
		t.Fatalf("open after payload flip: %v", err)
	}
	ok, _ := f.Section(1)
	if _, err := ok.Bytes(); err != nil {
		t.Fatalf("clean section: %v", err)
	}
	bad, _ := f.Section(2)
	if _, err := bad.Raw(); err != nil {
		t.Fatalf("Raw must not verify: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := bad.Bytes(); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("touch %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// mutate returns a copy of data with f applied.
func mutate(data []byte, f func(b []byte)) []byte {
	b := bytes.Clone(data)
	f(b)
	return b
}

// rechecksum fixes the header CRC after a deliberate header mutation,
// so the test reaches the directory validation it aims at.
func rechecksum(b []byte) {
	n := binary.LittleEndian.Uint32(b[len(Magic)+4:])
	end := headerFixed + int(n)*sectionEntrySize
	binary.LittleEndian.PutUint32(b[end:], snapshot.Checksum(b[:end]))
}

func TestHostileHeaders(t *testing.T) {
	data, _ := writeImage(t, map[uint32][]byte{1: []byte("aa"), 2: []byte("bb")}, []uint32{1, 2})
	entry := func(b []byte, i int) []byte { return b[headerFixed+i*sectionEntrySize:] }

	cases := map[string][]byte{
		"empty":            {},
		"short":            data[:10],
		"bad magic":        mutate(data, func(b []byte) { b[0] = 'X' }),
		"header crc flip":  mutate(data, func(b []byte) { b[headerFixed] ^= 1 }),
		"truncated header": data[:headerFixed+2],
		"huge section count": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[len(Magic)+4:], 1<<30)
		}),
		"max section count": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[len(Magic)+4:], 0xFFFFFFFF)
		}),
		"zero tag": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(entry(b, 0), 0)
			rechecksum(b)
		}),
		"duplicate tag": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(entry(b, 1), 1)
			rechecksum(b)
		}),
		"unaligned offset": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint64(entry(b, 0)[8:], PageSize+1)
			rechecksum(b)
		}),
		"overlapping sections": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint64(entry(b, 1)[8:], PageSize)
			rechecksum(b)
		}),
		"huge declared length": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint64(entry(b, 0)[16:], 1<<50)
			rechecksum(b)
		}),
		"negative length": mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint64(entry(b, 0)[16:], 1<<63)
			rechecksum(b)
		}),
		"truncated payload": data[:len(data)-(len(data)-PageSize)/2],
	}
	for name, in := range cases {
		f, err := OpenBytes(in)
		if err == nil {
			// Directory validation may legitimately pass for the payload
			// truncation only if lengths still fit; then the touch must fail.
			for _, s := range f.Sections() {
				lz, _ := f.Section(s.Tag)
				if _, err = lz.Bytes(); err != nil {
					break
				}
			}
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestVersionError(t *testing.T) {
	data, _ := writeImage(t, map[uint32][]byte{1: []byte("x")}, []uint32{1})
	old := mutate(data, func(b []byte) { binary.LittleEndian.PutUint32(b[len(Magic):], 1) })
	_, err := OpenBytes(old)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Found != 1 {
		t.Fatalf("err = %v, want VersionError{1}", err)
	}
}

func TestWriterLimits(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "x.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fw := NewFileWriter(f)
	fw.Section(0, func(sw *snapshot.Writer) {})
	if fw.Err() == nil {
		t.Fatal("tag 0 accepted")
	}
}
