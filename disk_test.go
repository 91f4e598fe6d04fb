package bayeslsh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bayeslsh/internal/diskidx"
	"bayeslsh/internal/snapshot"
)

// saveV3 writes ix as a disk-servable snapshot into a temp dir.
func saveV3(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.v3.snap")
	if err := ix.SaveFileV3(path); err != nil {
		t.Fatalf("SaveFileV3: %v", err)
	}
	return path
}

// openV3 round-trips ix through a v3 file and opens it mmap-backed,
// closing the mapping when the test ends.
func openV3(t *testing.T, ix *Index) *Index {
	t.Helper()
	opened, err := LoadFile(saveV3(t, ix))
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	t.Cleanup(func() { opened.Close() })
	return opened
}

// TestDiskSnapshotRoundTrip is the determinism contract of the disk
// path: for every measure and pipeline, three indexes — the cold
// build, a heap load of its v1 snapshot, and an mmap open of its v3
// snapshot — serve bit-identical Query, TopK and QueryBatch answers,
// including out-of-corpus queries hashed after the open.
func TestDiskSnapshotRoundTrip(t *testing.T) {
	const n = 200
	for _, tc := range snapshotConfigs() {
		tc := tc
		t.Run(tc.measure.String(), func(t *testing.T) {
			for _, alg := range queryAlgorithms() {
				ds, cold := buildTestIndex(t, tc, alg, n)
				heap := roundTrip(t, cold)
				disk := openV3(t, cold)
				requireSameWiring(t, heap, cold)
				requireSameWiring(t, disk, cold)

				if disk.Measure() != cold.Measure() || disk.Threshold() != cold.Threshold() ||
					disk.Len() != cold.Len() || disk.Options() != cold.Options() {
					t.Fatalf("%v: opened index metadata differs: %+v vs %+v",
						alg, disk.Options(), cold.Options())
				}

				queries := make([]Vec, ds.Len())
				for i := range queries {
					queries[i] = ds.Vector(i)
				}
				want, err := cold.QueryBatch(queries, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				fromHeap, err := heap.QueryBatch(queries, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				requireSameMatches(t, fromHeap, want)
				fromDisk, err := disk.QueryBatch(queries, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				requireSameMatches(t, fromDisk, want)

				oov := NewVec(map[uint32]float64{1: 0.7, 5: 0.3, 9: 0.65})
				a, err := cold.Query(oov, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				b, err := disk.Query(oov, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				requireSameMatches(t, [][]Match{b}, [][]Match{a})

				for i := 0; i < 10; i++ {
					wk, err := cold.TopK(ds.Vector(i), 5)
					if err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					gk, err := disk.TopK(ds.Vector(i), 5)
					if err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					requireSameMatches(t, [][]Match{gk}, [][]Match{wk})
				}
			}
		})
	}
}

// TestDiskSnapshotVariants covers the option-dependent disk paths the
// main matrix skips: multi-probe banding and 1-bit minhash
// verification (whose packed words are rebuilt from the mapped rows at
// open).
func TestDiskSnapshotVariants(t *testing.T) {
	cases := []struct {
		name string
		m    Measure
		cfg  EngineConfig
		prep func(*Dataset) *Dataset
		opts Options
	}{
		{"multiprobe", Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
			func(d *Dataset) *Dataset { return d.TfIdf().Normalize() },
			Options{Algorithm: LSHBayesLSHLite, Threshold: 0.7, MultiProbe: true}},
		{"onebit", Jaccard, EngineConfig{Seed: 8},
			func(d *Dataset) *Dataset { return d.Binarize() },
			Options{Algorithm: LSHBayesLSH, Threshold: 0.4, OneBitMinhash: true}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ds := c.prep(smallDataset(t, 200))
			ix, err := NewIndex(ds, c.m, c.cfg, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			disk := openV3(t, ix)
			requireSameWiring(t, disk, ix)
			queries := make([]Vec, ds.Len())
			for i := range queries {
				queries[i] = ds.Vector(i)
			}
			want, err := ix.QueryBatch(queries, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := disk.QueryBatch(queries, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, got, want)
		})
	}
}

// TestDiskLiveServing drives a LiveIndex whose base serves from a
// mapped v3 snapshot through the full life cycle — queries, ingest,
// deletes, a forced merge that folds the mapped corpus into a heap
// generation — against a twin whose base was heap-built, requiring
// identical answers at every step.
func TestDiskLiveServing(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	build := func() *Index {
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
			Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	lc := LiveConfig{MaxDelta: -1, MaxRatio: -1}
	heapLive, err := LiveFrom(build(), lc)
	if err != nil {
		t.Fatal(err)
	}
	defer heapLive.Close()
	diskLive, err := LiveFrom(openV3(t, build()), lc)
	if err != nil {
		t.Fatal(err)
	}
	defer diskLive.Close()
	if !diskLive.MemStats().DiskBacked {
		t.Fatal("LiveFrom over an opened v3 index should report DiskBacked")
	}

	check := func(stage string) {
		t.Helper()
		for i := 0; i < 40; i++ {
			want, err := heapLive.Query(ds.Vector(i), QueryOptions{})
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			got, err := diskLive.Query(ds.Vector(i), QueryOptions{})
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			requireSameMatches(t, [][]Match{got}, [][]Match{want})
		}
	}
	check("base")

	for i := 0; i < 30; i++ {
		v := ds.Vector(i % 10)
		a, err := heapLive.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := diskLive.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("ingest ids diverged: %d vs %d", a, b)
		}
	}
	heapLive.Delete(3)
	diskLive.Delete(3)
	check("after ingest")

	// A live index over a disk-backed base cannot snapshot — the v3
	// file *is* the base — until a merge folds everything to the heap.
	if err := diskLive.SaveFile(filepath.Join(t.TempDir(), "live.snap")); !errors.Is(err, ErrDiskBacked) {
		t.Fatalf("SaveFile over a disk-backed base: %v, want ErrDiskBacked", err)
	}
	if err := heapLive.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := diskLive.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after merge")
	if diskLive.MemStats().DiskBacked {
		t.Fatal("after a merge the compacted base should be heap-resident")
	}
	if err := diskLive.SaveFile(filepath.Join(t.TempDir(), "live.snap")); err != nil {
		t.Fatalf("SaveFile after merge: %v", err)
	}
}

// TestDiskBackedErrors pins ErrDiskBacked: a disk-backed index cannot
// be re-serialized by any writer — its file already is the snapshot.
func TestDiskBackedErrors(t *testing.T) {
	ds := smallDataset(t, 120).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 512},
		Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	disk := openV3(t, ix)
	if _, err := disk.WriteTo(io.Discard); !errors.Is(err, ErrDiskBacked) {
		t.Fatalf("WriteTo: %v, want ErrDiskBacked", err)
	}
	if err := disk.SaveFile(filepath.Join(t.TempDir(), "x.snap")); !errors.Is(err, ErrDiskBacked) {
		t.Fatalf("SaveFile: %v, want ErrDiskBacked", err)
	}
	if err := disk.SaveFileV3(filepath.Join(t.TempDir(), "x.v3.snap")); !errors.Is(err, ErrDiskBacked) {
		t.Fatalf("SaveFileV3: %v, want ErrDiskBacked", err)
	}
}

// TestOpenLiveFileVersions pins the sniffing restore chain: the same
// corpus saved as v1 (base), v2 (live) and v3 (disk-servable) all
// restore through the single OpenLiveFile entry point and serve
// identical answers; only the v3 restore is disk-backed.
func TestOpenLiveFileVersions(t *testing.T) {
	ds := smallDataset(t, 150).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 512},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	lc := LiveConfig{MaxDelta: -1, MaxRatio: -1}
	dir := t.TempDir()

	v1 := filepath.Join(dir, "v1.snap")
	if err := ix.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	v3 := filepath.Join(dir, "v3.snap")
	if err := ix.SaveFileV3(v3); err != nil {
		t.Fatal(err)
	}
	seedLive, err := LiveFrom(ix, lc)
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "v2.snap")
	if err := seedLive.SaveFile(v2); err != nil {
		t.Fatal(err)
	}
	want, err := seedLive.Query(ds.Vector(0), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seedLive.Close()

	for _, c := range []struct {
		path string
		disk bool
	}{{v1, false}, {v2, false}, {v3, true}} {
		li, err := OpenLiveFile(c.path, lc)
		if err != nil {
			t.Fatalf("OpenLiveFile(%s): %v", c.path, err)
		}
		if got := li.MemStats().DiskBacked; got != c.disk {
			t.Fatalf("%s: DiskBacked=%v, want %v", c.path, got, c.disk)
		}
		got, err := li.Query(ds.Vector(0), QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		requireSameMatches(t, [][]Match{got}, [][]Match{want})
		li.Close()
	}

	if _, err := OpenLiveFile(filepath.Join(dir, "absent.snap"), lc); err == nil {
		t.Fatal("OpenLiveFile on a missing file should fail")
	}
	junk := filepath.Join(dir, "junk.snap")
	if err := os.WriteFile(junk, []byte("NOTASNAPxxxxxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLiveFile(junk, lc); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("OpenLiveFile on junk: %v, want ErrSnapshotFormat", err)
	}
}

// TestDiskVersionErrors is the routing matrix: each of the five entry
// points that read snapshot files is handed each committed golden (v1,
// v2, v3) and a future version. A cell either opens the file, serving
// the golden's answers, or returns ErrSnapshotVersion naming the
// version it found and the entry points that read it — never a
// checksum or format error. Which cells open is read off the version
// table (snapshotReaders); InspectFile reads every version it lists.
func TestDiskVersionErrors(t *testing.T) {
	ds := goldenDataset()
	base, err := NewIndex(ds, Cosine, EngineConfig{Seed: 41, SignatureBits: 256},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	live := goldenLiveIndex(t)
	defer live.Close()
	type querier interface {
		Query(Vec, QueryOptions) ([]Match, error)
	}
	golden := map[uint32]querier{SnapshotVersion: base, LiveSnapshotVersion: live, DiskSnapshotVersion: base}

	future := filepath.Join(t.TempDir(), "v99.snap")
	buf, err := os.ReadFile("testdata/v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[len(snapshotMagic):], 99)
	if err := os.WriteFile(future, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	files := map[uint32]string{
		SnapshotVersion:     "testdata/v1.snap",
		LiveSnapshotVersion: "testdata/v2.snap",
		DiskSnapshotVersion: "testdata/v3.snap",
		99:                  future,
	}
	reader := func(path string) io.Reader {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(b)
	}
	entries := []struct {
		name string
		open func(path string) (any, error)
	}{
		{"LoadFile", func(p string) (any, error) { return LoadFile(p) }},
		{"ReadIndex", func(p string) (any, error) { return ReadIndex(reader(p)) }},
		{"OpenLiveFile", func(p string) (any, error) { return OpenLiveFile(p, LiveConfig{}) }},
		{"ReadLiveIndex", func(p string) (any, error) { return ReadLiveIndex(reader(p), LiveConfig{}) }},
		{"InspectFile", func(p string) (any, error) { return InspectFile(p) }},
	}
	for _, e := range entries {
		for _, v := range []uint32{SnapshotVersion, LiveSnapshotVersion, DiskSnapshotVersion, 99} {
			t.Run(fmt.Sprintf("%s/v%d", e.name, v), func(t *testing.T) {
				var readers []string
				if v < uint32(len(snapshotReaders)) {
					readers = snapshotReaders[v].readers
				}
				reads := slices.Contains(readers, e.name) || (e.name == "InspectFile" && readers != nil)
				got, err := e.open(files[v])
				if !reads {
					if !errors.Is(err, ErrSnapshotVersion) {
						t.Fatalf("%v, want ErrSnapshotVersion", err)
					}
					want := []string{fmt.Sprintf("found version %d", v)}
					for _, r := range snapshotReaders[1:] {
						if readers == nil || slices.Equal(r.readers, readers) {
							want = append(want, strings.Join(r.readers, ", "))
						}
					}
					for _, sub := range want {
						if !strings.Contains(err.Error(), sub) {
							t.Fatalf("diagnosis %q does not name %q", err, sub)
						}
					}
					return
				}
				if err != nil {
					t.Fatalf("the version table says %s reads version %d: %v", e.name, v, err)
				}
				switch got := got.(type) {
				case *SnapshotInfo:
					n := ds.Len()
					if v == LiveSnapshotVersion {
						n = live.Stats().Base
					}
					if uint32(got.Version) != v || got.Vectors != n {
						t.Fatalf("info reports version %d over %d vectors, want %d over %d",
							got.Version, got.Vectors, v, n)
					}
					return
				case *Index:
					defer got.Close()
				case *LiveIndex:
					defer got.Close()
				}
				served := got.(querier)
				for i := 0; i < ds.Len(); i++ {
					want, err := golden[v].Query(ds.Vector(i), QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					have, err := served.Query(ds.Vector(i), QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, [][]Match{have}, [][]Match{want})
				}
			})
		}
	}
}

// corruptFileAt flips one byte of a file copy and returns the copy's
// path.
func corruptFileAt(t *testing.T, path string, off int64) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= int64(len(buf)) {
		t.Fatalf("corruption offset %d beyond %d-byte file", off, len(buf))
	}
	buf[off] ^= 0x40
	bad := path + ".bad"
	if err := os.WriteFile(bad, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestDiskCorruption pins the first-touch verification model: header
// or metadata damage fails the open; damage to a bulk section leaves
// the open cheap and clean, and surfaces as ErrSnapshotChecksum on
// the first query that needs the section's bytes — deterministically,
// on every later query too.
func TestDiskCorruption(t *testing.T) {
	ds := smallDataset(t, 150).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 512},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	path := saveV3(t, ix)
	f, err := diskidx.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sects := f.Sections()
	f.Close()
	byTag := map[uint32]diskidx.Section{}
	for _, s := range sects {
		byTag[s.Tag] = s
	}

	// Header page damage: refused at open, as corruption (not version).
	if _, err := LoadFile(corruptFileAt(t, path, int64(len(snapshotMagic)+5))); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("corrupt header: %v, want ErrSnapshotFormat", err)
	}
	// Metadata damage: the meta section is the one section verified
	// eagerly, so the open itself reports the checksum.
	if _, err := LoadFile(corruptFileAt(t, path, byTag[sectMeta].Off+10)); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("corrupt meta: %v, want ErrSnapshotChecksum", err)
	}

	// Bulk-section damage: open succeeds, first query reports it.
	for _, tag := range []uint32{sectVectors, sectBitStore, sectBitTables} {
		s, ok := byTag[tag]
		if !ok {
			t.Fatalf("section %d missing from %v", tag, sects)
		}
		opened, err := LoadFile(corruptFileAt(t, path, s.Off+s.Len/2))
		if err != nil {
			t.Fatalf("open with corrupt section %d: %v", tag, err)
		}
		for i := 0; i < 2; i++ { // cached: identical on re-query
			if _, err := opened.Query(ds.Vector(0), QueryOptions{}); !errors.Is(err, ErrSnapshotChecksum) {
				t.Fatalf("query %d over corrupt section %d: %v, want ErrSnapshotChecksum", i, tag, err)
			}
		}
		// First-touch is per section, so TopK — which ranks by exact
		// similarity and never reads the stored signature matrix —
		// fails only when the damage is in a section it dereferences.
		_, err = opened.TopK(ds.Vector(0), 3)
		if wantErr := tag != sectBitStore; (err != nil) != wantErr {
			t.Fatalf("topk over corrupt section %d: err=%v, want failure=%v", tag, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("topk over corrupt section %d: %v, want ErrSnapshotChecksum", tag, err)
		}
		opened.Close()
	}

	// The same damage surfaces through a live wrapper's queries.
	opened, err := LoadFile(corruptFileAt(t, path, byTag[sectBitTables].Off+byTag[sectBitTables].Len/2))
	if err != nil {
		t.Fatal(err)
	}
	li, err := LiveFrom(opened, LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := li.Query(ds.Vector(0), QueryOptions{}); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("live query over corrupt section: %v, want ErrSnapshotChecksum", err)
	}
	// Compact with nothing to fold is a no-op; ingest one vector so the
	// merge really runs — it must refuse to adopt bytes from the damaged
	// mapping, leaving the previous generation serving.
	if _, err := li.Add(ds.Vector(1)); err != nil {
		t.Fatalf("add before compact: %v", err)
	}
	if err := li.Compact(); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("compact over corrupt section: %v, want ErrSnapshotChecksum", err)
	}
	li.Close()
	opened.Close()

	// A section the index's signature kind or generator does not read,
	// or a set exact-projection flag, is refused at open, as a format
	// error, so no query ever reaches it.
	for _, c := range forgedSnapshots(t) {
		if ix, err := LoadFile(c.v3); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("v3 %s: LoadFile %v, want ErrSnapshotFormat", c.name, err)
			if ix != nil {
				ix.Close()
			}
		}
		if li, err := OpenLiveFile(c.v3, LiveConfig{}); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("v3 %s: OpenLiveFile %v, want ErrSnapshotFormat", c.name, err)
			if li != nil {
				li.Close()
			}
		}
	}
}

// diskSectionOf returns a copy of the payload of section tag of the v3
// file at path.
func diskSectionOf(t testing.TB, path string, tag uint32) []byte {
	t.Helper()
	f, err := diskidx.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, ok := f.Section(tag)
	if !ok {
		t.Fatalf("%s has no section %d", path, tag)
	}
	b, err := l.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{}, b...)
}

// withDiskSection writes a copy of the v3 file at path whose section
// tag carries payload instead (added if the file has none), its meta
// section passed through editMeta when that is non-nil, and returns
// the copy's path. Sections are laid out in tag order, every checksum
// valid.
func withDiskSection(t testing.TB, path string, tag uint32, payload []byte, editMeta func([]byte) []byte) string {
	t.Helper()
	f, err := diskidx.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sects := map[uint32][]byte{tag: payload}
	for _, s := range f.Sections() {
		if s.Tag != tag {
			sects[s.Tag] = diskSectionOf(t, path, s.Tag)
		}
	}
	f.Close()
	if editMeta != nil {
		sects[sectMeta] = editMeta(sects[sectMeta])
	}
	out := filepath.Join(t.TempDir(), "forged.v3.snap")
	w, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fw := diskidx.NewFileWriter(w)
	for _, tag := range slices.Sorted(maps.Keys(sects)) {
		fw.Section(tag, func(sw *snapshot.Writer) { sw.Raw(sects[tag]) })
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiskMemStats pins the observability surface: a heap index
// reports nothing, a disk-backed one reports the mapping size and a
// residency figure bounded by it.
func TestDiskMemStats(t *testing.T) {
	ds := smallDataset(t, 120).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 512},
		Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if m := ix.MemStats(); m.DiskBacked || m.MappedBytes != 0 || m.ResidentBytes != 0 {
		t.Fatalf("heap index MemStats = %+v, want zero", m)
	}
	path := saveV3(t, ix)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	m := disk.MemStats()
	if !m.DiskBacked || m.MappedBytes != fi.Size() {
		t.Fatalf("MemStats = %+v, want DiskBacked with %d mapped bytes", m, fi.Size())
	}
	if m.ResidentBytes < 0 || m.ResidentBytes > m.MappedBytes {
		t.Fatalf("ResidentBytes %d outside [0, %d]", m.ResidentBytes, m.MappedBytes)
	}
}

// TestInspectFile drives the forensic reader over all three formats
// and the failure classes behind the "apss info" exit-2 contract.
func TestInspectFile(t *testing.T) {
	ds := smallDataset(t, 100).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 3, SignatureBits: 256},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.snap")
	if err := ix.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	v3 := filepath.Join(dir, "v3.snap")
	if err := ix.SaveFileV3(v3); err != nil {
		t.Fatal(err)
	}
	li, err := LiveFrom(ix, LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "v2.snap")
	if err := li.SaveFile(v2); err != nil {
		t.Fatal(err)
	}
	// A second live snapshot with two adds and two deletes, one of each
	// segment: the live section must count both.
	for i := range 2 {
		if _, err := li.Add(ds.Vector(i)); err != nil {
			t.Fatal(err)
		}
	}
	li.Delete(5)
	li.Delete(ds.Len() + 1)
	churned := filepath.Join(dir, "v2-churned.snap")
	if err := li.SaveFile(churned); err != nil {
		t.Fatal(err)
	}
	wantLive := li.Len()
	li.Close()
	info, err := InspectFile(churned)
	if err != nil {
		t.Fatal(err)
	}
	if want := (LiveSnapshotInfo{Delta: 2, Tombstones: 2, Vectors: wantLive}); info.Vectors != ds.Len() || info.Live == nil || *info.Live != want {
		t.Fatalf("churned live snapshot: base %d, live %+v; want base %d, live %+v", info.Vectors, info.Live, ds.Len(), want)
	}

	for _, c := range []struct {
		path    string
		version int
	}{{v1, 1}, {v2, 2}, {v3, 3}} {
		info, err := InspectFile(c.path)
		if err != nil {
			t.Fatalf("InspectFile(%s): %v", c.path, err)
		}
		if info.Version != c.version {
			t.Fatalf("%s: version %d, want %d", c.path, info.Version, c.version)
		}
		if info.Vectors != ds.Len() || info.Dim != ds.Dim() {
			t.Fatalf("%s: corpus %d x %d, want %d x %d", c.path, info.Vectors, info.Dim, ds.Len(), ds.Dim())
		}
		if info.Measure != Cosine || info.Algorithm != LSHBayesLSH || info.Threshold != 0.7 {
			t.Fatalf("%s: metadata %v/%v/t=%v", c.path, info.Measure, info.Algorithm, info.Threshold)
		}
		if (info.Live != nil) != (c.version == 2) || (info.Live != nil && *info.Live != LiveSnapshotInfo{Vectors: ds.Len()}) {
			t.Fatalf("%s: live %+v", c.path, info.Live)
		}
		if fi, _ := os.Stat(c.path); info.Size != fi.Size() {
			t.Fatalf("%s: size %d, want %d", c.path, info.Size, fi.Size())
		}
		names := map[string]bool{}
		for _, s := range info.Sections {
			names[s.Name] = true
			if s.Len < 0 || s.Off < 0 || s.Off+s.Len > info.Size {
				t.Fatalf("%s: section %+v outside the file", c.path, s)
			}
			if c.version == 3 && s.Off%4096 != 0 {
				t.Fatalf("%s: v3 section %+v not page-aligned", c.path, s)
			}
		}
		if !names["meta"] || !names["vectors"] {
			t.Fatalf("%s: sections %v missing meta/vectors", c.path, info.Sections)
		}
	}

	// Every failure class reports, never panics: flipped bytes in each
	// format (for v3, inside a section — header-page padding is not
	// covered by any checksum), junk, truncation, absence.
	for p, off := range map[string]int64{v1: 3000, v2: 3000, v3: 4096 + 50} {
		if _, err := InspectFile(corruptFileAt(t, p, off)); err == nil {
			t.Fatalf("InspectFile on corrupt %s should fail", p)
		}
	}
	junk := filepath.Join(dir, "junk.snap")
	if err := os.WriteFile(junk, []byte("not a snapshot at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectFile(junk); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("InspectFile on junk: %v, want ErrSnapshotFormat", err)
	}
	if _, err := InspectFile(filepath.Join(dir, "absent.snap")); err == nil {
		t.Fatal("InspectFile on a missing file should fail")
	}
}

// TestGoldenDiskSnapshot reads the committed version-3 snapshot, the
// compatibility contract of the disk format: if HEAD can no longer
// open it, version 3 has been broken and DiskSnapshotVersion must be
// bumped instead. Regenerate deliberately with -update after such a
// bump.
func TestGoldenDiskSnapshot(t *testing.T) {
	const path = "testdata/v3.snap"
	if *updateGolden {
		ds := goldenDataset()
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 41, SignatureBits: 256},
			Options{Algorithm: LSHBayesLSH, Threshold: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ix.SaveFileV3(path); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatalf("HEAD cannot open the committed v3 snapshot: %v", err)
	}
	defer ix.Close()
	fresh, err := NewIndex(goldenDataset(), Cosine, EngineConfig{Seed: 41, SignatureBits: 256},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ds := goldenDataset()
	for i := 0; i < ds.Len(); i++ {
		want, err := fresh.Query(ds.Vector(i), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(ds.Vector(i), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, [][]Match{got}, [][]Match{want})
	}
}

// resealV3 forges a structurally self-consistent v3 image out of
// mutated bytes: valid magic and version, then every in-bounds
// section checksum and finally the header checksum recomputed — the
// shape a deliberate attacker would produce, which drives the fuzzer
// past the CRC gates into the deep structural validators.
func resealV3(data []byte) []byte {
	const (
		headerFixed = 16 // magic, version, section count
		entrySize   = 32
		pageSize    = 4096
	)
	sealed := append([]byte{}, data...)
	copy(sealed, diskidx.Magic)
	binary.LittleEndian.PutUint32(sealed[len(diskidx.Magic):], diskidx.Version)
	n := int(binary.LittleEndian.Uint32(sealed[len(diskidx.Magic)+4:]))
	end := headerFixed + n*entrySize
	if n < 0 || n > 127 || end+4 > len(sealed) || end+4 > pageSize {
		return sealed
	}
	for i := 0; i < n; i++ {
		e := sealed[headerFixed+i*entrySize:]
		off := binary.LittleEndian.Uint64(e[8:])
		ln := binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(sealed)) && ln <= uint64(len(sealed))-off {
			binary.LittleEndian.PutUint32(e[24:], snapshot.Checksum(sealed[off:off+ln]))
		}
	}
	binary.LittleEndian.PutUint32(sealed[end:], snapshot.Checksum(sealed[:end]))
	return sealed
}

// FuzzOpenIndexFile fuzzes LoadFile's disk-snapshot open path (the
// target keeps the name its stored corpus is filed under): any byte
// string may fail to open but must never panic, and whatever does
// open must serve queries — or fail them with a typed error — without
// panicking. Mutations are additionally resealed with valid checksums
// so the structural validators behind the CRC gates stay fuzzed.
func FuzzOpenIndexFile(f *testing.F) {
	good, err := os.ReadFile(v3File(f, fuzzIndex(f, Cosine, Options{Algorithm: AllPairsBayesLSH, Threshold: 0.6})))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:4100])
	f.Add([]byte(diskidx.Magic))
	// A multi-probe LSH index seeds the band-table view; the other
	// signature kinds and generators, and the forged files that once
	// opened and then panicked, seed the rest.
	paths := []string{v3File(f, fuzzIndex(f, Cosine, Options{Algorithm: LSHBayesLSH, Threshold: 0.6, MultiProbe: true}))}
	for _, ix := range fuzzSeedIndexes(f) {
		paths = append(paths, v3File(f, ix))
	}
	for _, c := range forgedSnapshots(f) {
		paths = append(paths, c.v3)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	serve := func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		opened, err := LoadFile(path)
		if err != nil {
			return
		}
		defer opened.Close()
		serveFuzzed(t, opened.Query, opened.TopK)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		serve(t, data)
		if len(data) >= 4096 {
			serve(t, resealV3(data))
		}
	})
}

// FuzzInspectFile fuzzes InspectFile, the reader behind "apss info":
// any bytes may fail but must never panic, and whatever LoadFile or
// OpenLiveFile accepts, InspectFile must accept too and report alike —
// the same measure, algorithm and vector count (a live file's count of
// live vectors). The one exception is by design: a v3 open verifies
// bulk sections on first touch, so it accepts a damaged section that
// InspectFile, which verifies every checksum, refuses; the first touch
// must then report the same ErrSnapshotChecksum. It is seeded with the
// committed v1, v2 and v3 goldens and every committed input of the
// snapshot fuzzers; mutations are also resealed, as a stream or a v3
// file by the version they carry, so the agreement is checked past the
// checksum gates.
func FuzzInspectFile(f *testing.F) {
	seeds, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range append([]string{"testdata/v1.snap", "testdata/v2.snap", "testdata/v3.snap"}, seeds...) {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if filepath.Ext(p) != ".snap" {
			b = corpusBytes(f, p, b)
		}
		f.Add(b)
	}
	check := func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, ierr := InspectFile(path)
		agree := func(loader string, ix *Index, m Measure, alg Algorithm, n int) {
			if ierr != nil {
				if !errors.Is(ierr, ErrSnapshotChecksum) || !firstTouchDamaged(ix) {
					t.Fatalf("%s accepts the file, InspectFile refuses it: %v", loader, ierr)
				}
				return
			}
			want := info.Vectors
			if info.Live != nil {
				want = info.Live.Vectors
			}
			if info.Measure != m || info.Algorithm != alg || want != n {
				t.Fatalf("%s reads %v %v over %d vectors, InspectFile %v %v over %d",
					loader, m, alg, n, info.Measure, info.Algorithm, want)
			}
		}
		if ix, err := LoadFile(path); err == nil {
			agree("LoadFile", ix, ix.Measure(), ix.Options().Algorithm, ix.Len())
			ix.Close()
		}
		if li, err := OpenLiveFile(path, LiveConfig{MaxDelta: -1, MaxRatio: -1}); err == nil {
			agree("OpenLiveFile", li.gen.Load().base, li.Measure(), li.Options().Algorithm, li.Len())
			li.Close()
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) < len(snapshotMagic)+8 {
			return
		}
		switch v := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); {
		case v == SnapshotVersion || v == LiveSnapshotVersion:
			check(t, resealStream(data, v))
		case len(data) >= 4096:
			check(t, resealV3(data))
		}
	})
}

// firstTouchDamaged reports whether the first touch of some section of
// a disk-backed index fails its checksum.
func firstTouchDamaged(ix *Index) bool {
	if ix.disk == nil {
		return false
	}
	for _, s := range ix.disk.all {
		if errors.Is(s.touch(), ErrSnapshotChecksum) {
			return true
		}
	}
	return false
}

// corpusBytes decodes the one []byte value of a committed fuzz input
// (the "go test fuzz v1" file format) read from path.
func corpusBytes(t testing.TB, path string, raw []byte) []byte {
	t.Helper()
	header, value, _ := strings.Cut(string(raw), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(value), "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a one-[]byte fuzz input (%v)", path, err)
	}
	return []byte(s)
}
