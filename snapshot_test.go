package bayeslsh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bayeslsh/internal/core"
	"bayeslsh/internal/snapshot"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden snapshots")

// snapshotConfigs is the measure side of the round-trip matrix,
// matching the thresholds of the query consistency tests.
func snapshotConfigs() []queryTestConfig {
	return queryTestConfigs()
}

// buildTestIndex builds an index over a small corpus for one
// measure × algorithm cell.
func buildTestIndex(t *testing.T, tc queryTestConfig, alg Algorithm, n int) (*Dataset, *Index) {
	t.Helper()
	ds := tc.prep(smallDataset(t, n))
	ix, err := NewIndex(ds, tc.measure, tc.cfg, Options{Algorithm: alg, Threshold: tc.threshold})
	if err != nil {
		t.Fatalf("%v/%v: %v", tc.measure, alg, err)
	}
	return ds, ix
}

// roundTrip serializes ix and loads it back.
func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	return loaded
}

// requireSameWiring fails unless got serves with the pipeline wiring
// of want: the same banding and verification depths, the same 1-bit
// packing and LSHApprox hash count, and a verifier with the same
// parameters. The verifiers' Ensure hooks and watermarks are left out:
// each describes its own index's signature store (a built store is
// filled to the banding depth, a loaded one to what the file holds).
func requireSameWiring(t *testing.T, got, want *Index) {
	t.Helper()
	type wiring struct {
		BandBits, VerifyBits, BandMin, VerifyMin int
		PackOneBit                               bool
		ApproxN                                  int
		Verifier                                 bool
		Params                                   core.Params
	}
	of := func(ix *Index) wiring {
		w := wiring{ix.bandBits, ix.verifyBits, ix.bandMin, ix.verifyMin, ix.packOneBit, ix.approxN, ix.vq != nil, core.Params{}}
		if ix.vq != nil {
			w.Params = ix.vq.Params()
			w.Params.Ensure, w.Params.Watermark = nil, 0
		}
		return w
	}
	if g, w := of(got), of(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%v: wiring %+v, want %+v", want.Options().Algorithm, g, w)
	}
}

// TestSnapshotRoundTrip is the persistence guarantee: for every
// measure and pipeline, an index loaded from a snapshot serves
// Query, TopK and QueryBatch results bit-identical to the index that
// wrote it — including queries that trigger lazy signature fills and
// out-of-corpus queries hashed after the load.
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 200
	for _, tc := range snapshotConfigs() {
		tc := tc
		t.Run(tc.measure.String(), func(t *testing.T) {
			for _, alg := range queryAlgorithms() {
				ds, ix := buildTestIndex(t, tc, alg, n)
				loaded := roundTrip(t, ix)
				requireSameWiring(t, loaded, ix)

				if loaded.Measure() != ix.Measure() || loaded.Threshold() != ix.Threshold() ||
					loaded.Len() != ix.Len() || loaded.Options() != ix.Options() {
					t.Fatalf("%v: loaded index metadata differs: %+v vs %+v",
						alg, loaded.Options(), ix.Options())
				}
				if ls, ws := loaded.Stats(), ix.Stats(); ls.Tables != ws.Tables ||
					ls.BandK != ws.BandK || ls.PriorCandidates != ws.PriorCandidates {
					t.Fatalf("%v: loaded stats %+v, want %+v", alg, ls, ws)
				}

				queries := make([]Vec, ds.Len())
				for i := range queries {
					queries[i] = ds.Vector(i)
				}
				want, err := ix.QueryBatch(queries, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				got, err := loaded.QueryBatch(queries, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				requireSameMatches(t, got, want)

				// Out-of-corpus query: hashed from the re-derived seed
				// streams on both sides.
				oov := NewVec(map[uint32]float64{1: 0.7, 5: 0.3, 9: 0.65})
				a, err := ix.Query(oov, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				b, err := loaded.Query(oov, QueryOptions{})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				requireSameMatches(t, [][]Match{b}, [][]Match{a})

				for i := 0; i < 10; i++ {
					wk, err := ix.TopK(ds.Vector(i), 5)
					if err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					gk, err := loaded.TopK(ds.Vector(i), 5)
					if err != nil {
						t.Fatalf("%v: %v", alg, err)
					}
					requireSameMatches(t, [][]Match{gk}, [][]Match{wk})
				}
			}
		})
	}
}

// TestSnapshotRoundTripVariants covers the option-dependent paths the
// main matrix skips: multi-probe banding and 1-bit minhash.
func TestSnapshotRoundTripVariants(t *testing.T) {
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
		{"exactproj", Cosine, EngineConfig{Seed: 9, SignatureBits: 1024, ExactProjections: true},
			func(d *Dataset) *Dataset { return d.TfIdf().Normalize() },
			Options{Algorithm: LSHBayesLSH, Threshold: 0.7}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ds := c.prep(smallDataset(t, 200))
			ix, err := NewIndex(ds, c.m, c.cfg, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			loaded := roundTrip(t, ix)
			queries := make([]Vec, ds.Len())
			for i := range queries {
				queries[i] = ds.Vector(i)
			}
			want, err := ix.QueryBatch(queries, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.QueryBatch(queries, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, got, want)
		})
	}
}

// TestSnapshotRuntimeKnobs verifies a loaded index is deterministic
// across SetRuntime settings: Parallelism and BatchSize shard the
// work, never change the answers — the same guarantee the in-memory
// index makes.
func TestSnapshotRuntimeKnobs(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	queries := make([]Vec, ds.Len())
	for i := range queries {
		queries[i] = ds.Vector(i)
	}
	var want [][]Match
	for i, knobs := range []struct{ p, b int }{{1, 1}, {4, 16}, {0, 0}} {
		loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		loaded.SetRuntime(knobs.p, knobs.b)
		got, err := loaded.QueryBatch(queries, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		requireSameMatches(t, got, want)
	}
}

// TestSnapshotLazyFillAfterLoad saves an index whose stores are only
// partially filled (no queries ran before the save), then drives the
// loaded index so the remaining fills happen post-load — they must
// extend the restored prefixes from the identical seed streams.
func TestSnapshotLazyFillAfterLoad(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	build := func() *Index {
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
			Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// Saved immediately after build: band depth is filled, verification
	// depth is not.
	loaded := roundTrip(t, build())
	fresh := build()
	for i := 0; i < ds.Len(); i++ {
		want, err := fresh.Query(ds.Vector(i), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(ds.Vector(i), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, [][]Match{got}, [][]Match{want})
	}
}

// TestSnapshotFileHelpers exercises SaveFile/LoadFile, including the
// atomic-replace contract (the destination appears only complete).
func TestSnapshotFileHelpers(t *testing.T) {
	ds := smallDataset(t, 120).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
		Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded %d vectors, want %d", loaded.Len(), ix.Len())
	}
	want, err := ix.Query(ds.Vector(0), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(ds.Vector(0), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, [][]Match{got}, [][]Match{want})
	// Saving over an existing snapshot replaces it.
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
}

// TestSetRuntimeDoesNotTouchSharedEngine pins SetRuntime's isolation
// contract: an index built from a live engine detaches onto its own
// engine view, so the engine the caller holds — and its batch
// searches — keep their configured knobs, while the index serves
// identical results under its new ones.
func TestSetRuntimeDoesNotTouchSharedEngine(t *testing.T) {
	ds := smallDataset(t, 150).TfIdf().Normalize()
	eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 512, Parallelism: 3, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := eng.BuildIndex(Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Query(ds.Vector(0), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ix.SetRuntime(1, 1)
	if eng.cfg.Parallelism != 3 || eng.cfg.BatchSize != 256 {
		t.Fatalf("SetRuntime mutated the shared engine: %+v", eng.cfg)
	}
	if ix.engine().cfg.Parallelism != 1 || ix.engine().cfg.BatchSize != 1 {
		t.Fatalf("SetRuntime did not apply to the index: %+v", ix.engine().cfg)
	}
	got, err := ix.Query(ds.Vector(0), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, [][]Match{got}, [][]Match{want})
	// The detached view shares the stores — no re-hashing happened.
	if ix.engine().bitStore != eng.bitStore {
		t.Fatal("SetRuntime cloned the signature store")
	}
}

// TestSetRuntimeConcurrentQueries is the -race regression test for
// the atomically-swapped runtime knobs: SetRuntime races against a
// pool of querying goroutines, and every query — whichever engine
// view it lands on — must return the baseline result set.
func TestSetRuntimeConcurrentQueries(t *testing.T) {
	ds := smallDataset(t, 150).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 512},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Match, 20)
	for i := range want {
		if want[i], err = ix.Query(ds.Vector(i), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := (g*5 + i) % len(want)
				got, err := ix.Query(ds.Vector(qi), QueryOptions{})
				if err != nil {
					t.Errorf("query during SetRuntime: %v", err)
					return
				}
				if len(got) != len(want[qi]) {
					t.Errorf("query %d under SetRuntime: %d matches, want %d", qi, len(got), len(want[qi]))
					return
				}
				// Batch queries exercise the workers() load on the
				// swapped view as well.
				if _, err := ix.QueryBatch([]Vec{ds.Vector(qi)}, QueryOptions{}); err != nil {
					t.Errorf("batch during SetRuntime: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		ix.SetRuntime(1+i%4, 64*(1+i%3))
	}
	close(done)
	wg.Wait()
}

// TestSaveFilePermissions pins the fleet-deployment contract: a fresh
// snapshot is world-readable (0644, not the temp file's 0600), and
// re-saving preserves the permissions of the file it replaces.
func TestSaveFilePermissions(t *testing.T) {
	ds := smallDataset(t, 60).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 2, SignatureBits: 256},
		Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("fresh snapshot mode %v (%v), want 0644", fi.Mode().Perm(), err)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("re-saved snapshot mode %v (%v), want preserved 0600", fi.Mode().Perm(), err)
	}
}

// snapshotBytes serializes a small index for the error-path tests.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	ds := smallDataset(t, 80).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 3, SignatureBits: 512},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotErrors drives the decoder through the documented failure
// classes: wrong magic, unknown version, corruption, truncation.
func TestSnapshotErrors(t *testing.T) {
	good := snapshotBytes(t)
	if _, err := ReadIndex(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot failed: %v", err)
	}

	bad := append([]byte("NOTASNAP"), good[8:]...)
	if _, err := ReadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("bad magic: %v, want ErrSnapshotFormat", err)
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("empty input: %v, want ErrSnapshotFormat", err)
	}

	future := append([]byte{}, good...)
	future[8] = 99 // version field
	if _, err := ReadIndex(bytes.NewReader(future)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: %v, want ErrSnapshotVersion", err)
	}

	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadIndex(bytes.NewReader(flipped)); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("flipped byte: %v, want ErrSnapshotChecksum", err)
	}

	// Every truncation must fail cleanly — never panic, never succeed.
	for cut := 0; cut < len(good); cut += 97 {
		if _, err := ReadIndex(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes succeeded", cut)
		}
	}
}

// FuzzReadIndex fuzzes the snapshot decoder: any input may fail but
// must never panic, and a pristine snapshot must load.
func FuzzReadIndex(f *testing.F) {
	ds := NewDataset(16)
	ds.Add(map[uint32]float64{1: 0.8, 3: 0.6})
	ds.Add(map[uint32]float64{1: 0.6, 3: 0.8})
	ds.Add(map[uint32]float64{2: 1})
	ds.Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 1, SignatureBits: 128},
		Options{Algorithm: AllPairsBayesLSH, Threshold: 0.6})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add([]byte(snapshotMagic))
	// A multi-probe LSH index seeds the band-table decoder.
	lsh, err := NewIndex(ds, Cosine, EngineConfig{Seed: 1, SignatureBits: 128},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.6, MultiProbe: true})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if _, err := lsh.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	serve := func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be servable without panicking.
		if _, err := ix.Query(ds.Vector(0), QueryOptions{}); err != nil {
			t.Logf("query on decoded index: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		serve(t, data)
		// Raw mutations almost never pass the CRC gate, which would
		// leave the section decoders unfuzzed — so also re-seal the
		// mutated bytes with a valid prologue and checksum, the way a
		// deliberate forger would, and require the decoders themselves
		// to hold the never-panic line.
		if len(data) < len(snapshotMagic)+8 {
			return
		}
		sealed := append([]byte{}, data...)
		copy(sealed, snapshotMagic)
		binary.LittleEndian.PutUint32(sealed[len(snapshotMagic):], SnapshotVersion)
		binary.LittleEndian.PutUint32(sealed[len(sealed)-4:],
			snapshot.Checksum(sealed[:len(sealed)-4]))
		serve(t, sealed)
	})
}

// TestGoldenSnapshot reads the committed version-1 snapshot, the
// compatibility contract of the format: if HEAD can no longer read
// it, version 1 has been broken and SnapshotVersion must be bumped
// instead. Regenerate deliberately with -update after such a bump.
func TestGoldenSnapshot(t *testing.T) {
	const path = "testdata/v1.snap"
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
		if err := ix.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := LoadFile(path)
	if err != nil {
		t.Fatalf("HEAD cannot read the committed v1 snapshot: %v", err)
	}
	// The golden index must also still serve: rebuild the same index
	// from source data and require identical results.
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

// goldenDataset is the tiny fixed corpus behind testdata/v1.snap,
// constructed in code so the golden test needs no second data file.
func goldenDataset() *Dataset {
	ds := NewDataset(32)
	for i := 0; i < 24; i++ {
		v := map[uint32]float64{}
		for j := 0; j < 6; j++ {
			v[uint32((i*5+j*7)%32)] = float64(1+(i+j)%4) / 2
		}
		ds.Add(v)
	}
	return ds.TfIdf().Normalize()
}

// withSection returns a copy of a version-1 or version-2 snapshot
// whose section tag carries payload instead, re-sealed with a valid
// checksum the way a deliberate forger would.
func withSection(t *testing.T, snap []byte, tag uint32, payload []byte) []byte {
	t.Helper()
	return editSection(t, snap, tag, func([]byte) []byte { return payload })
}

// editSection is withSection with the new payload computed by edit
// from a copy of the old one.
func editSection(t *testing.T, snap []byte, tag uint32, edit func(old []byte) []byte) []byte {
	t.Helper()
	body := snap[len(snapshotMagic)+4 : len(snap)-4]
	out := append([]byte{}, snap[:len(snapshotMagic)+4]...)
	found := false
	for len(body) > 0 {
		got := binary.LittleEndian.Uint32(body)
		n := binary.LittleEndian.Uint64(body[4:])
		frame := body[:12+n]
		body = body[12+n:]
		if got == tag {
			found = true
			payload := edit(append([]byte{}, frame[12:]...))
			frame = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, tag), uint64(len(payload)))
			frame = append(frame, payload...)
		}
		out = append(out, frame...)
	}
	if !found {
		t.Fatalf("snapshot has no section %d", tag)
	}
	return binary.LittleEndian.AppendUint32(out, snapshot.Checksum(out))
}

// TestHostileBandTables forges the band-table section of version-1 and
// version-2 snapshots with buckets no writer emits. Each must fail as
// ErrSnapshotFormat and never panic; the forgery of a valid section
// must still load.
func TestHostileBandTables(t *testing.T) {
	ds := smallDataset(t, 80).TfIdf().Normalize()
	cfg := EngineConfig{Seed: 3, SignatureBits: 512}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	ix, err := NewIndex(ds, Cosine, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	li, err := NewLiveIndex(ds, Cosine, cfg, opts, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	var v1, v2 bytes.Buffer
	if _, err := ix.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := li.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	k, l, n := ix.Stats().BandK, ix.Stats().Tables, int32(ds.Len())
	// tables streams a bit-table section whose band 0 holds the given
	// buckets and every other band one bucket of the whole corpus.
	type bucket struct {
		key uint64
		ids []int32
	}
	tables := func(band0 ...bucket) []byte {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		w.Bool(true)
		w.U32(uint32(k))
		w.U32(uint32(l))
		w.Bool(false)
		w.U64(uint64(len(band0)))
		for _, b := range band0 {
			w.U64(b.key)
			w.I32s(b.ids)
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		for range l - 1 {
			w.U64(1)
			w.U64(7)
			w.I32s(all)
		}
		return buf.Bytes()
	}
	read := map[string]func([]byte) error{
		"v1": func(b []byte) error { _, err := ReadIndex(bytes.NewReader(b)); return err },
		"v2": func(b []byte) error {
			li, err := ReadLiveIndex(bytes.NewReader(b), LiveConfig{})
			if err == nil {
				li.Close()
			}
			return err
		},
	}
	snaps := map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes()}
	for _, v := range []string{"v1", "v2"} {
		if err := read[v](withSection(t, snaps[v], sectBitTables, tables(bucket{0, []int32{0, 2}}, bucket{1, []int32{1}}))); err != nil {
			t.Fatalf("%s: valid forged tables: %v", v, err)
		}
		for _, c := range []struct {
			name string
			bad  []bucket
		}{
			{"ids out of order", []bucket{{0, []int32{2, 1}}}},
			{"repeated id", []bucket{{0, []int32{1, 1}}}},
			{"empty bucket", []bucket{{0, []int32{0}}, {1, nil}}},
			{"id at n", []bucket{{0, []int32{0, n}}}},
			{"duplicate key", []bucket{{0, []int32{0}}, {0, []int32{1}}}},
			{"keys out of order", []bucket{{1, []int32{0}}, {0, []int32{1}}}},
		} {
			if err := read[v](withSection(t, snaps[v], sectBitTables, tables(c.bad...))); !errors.Is(err, ErrSnapshotFormat) {
				t.Errorf("%s %s: %v, want ErrSnapshotFormat", v, c.name, err)
			}
		}
	}
}
