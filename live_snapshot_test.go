package bayeslsh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/vector"
)

// liveRoundTrip serializes a live index and loads it back.
func liveRoundTrip(t *testing.T, li *LiveIndex) *LiveIndex {
	t.Helper()
	var buf bytes.Buffer
	n, err := li.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadLiveIndex(bytes.NewReader(buf.Bytes()), LiveConfig{})
	if err != nil {
		t.Fatalf("ReadLiveIndex: %v", err)
	}
	return loaded
}

// TestLiveSnapshotRoundTrip is the live persistence guarantee: a
// mutated live index — adds, deletes, a merge, more mutations —
// snapshots the full generation state, and the loaded index serves
// bit-identical results AND accepts further mutations continuing the
// saved id sequence exactly like the writer would have.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	const seedN, poolN = 80, 140
	algs := []Algorithm{LSH, LSHBayesLSH, AllPairsBayesLSHLite}
	for _, tc := range queryTestConfigs() {
		tc := tc
		t.Run(tc.measure.String(), func(t *testing.T) {
			pool := tc.prep(smallDataset(t, poolN))
			for _, alg := range algs {
				opts := Options{Algorithm: alg, Threshold: tc.threshold}
				seed := &Dataset{c: &vector.Collection{Dim: pool.Dim(), Vecs: pool.c.Vecs[:seedN]}}
				li, err := NewLiveIndex(seed, tc.measure, tc.cfg, opts, LiveConfig{MaxDelta: -1, MaxRatio: -1})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				s := &liveScript{t: t, li: li}
				for i := 0; i < seedN; i++ {
					s.ids = append(s.ids, i)
					s.vecs = append(s.vecs, seed.c.Vecs[i])
				}
				// add → delete → merge → add → delete: the snapshot must
				// carry a non-trivial id map, tombstones and a delta.
				for i := seedN; i < seedN+25; i++ {
					s.add(pool.Vector(i))
				}
				s.del(5)
				s.del(seedN + 3)
				li.Compact()
				for i := seedN + 25; i < seedN+40; i++ {
					s.add(pool.Vector(i))
				}
				s.del(seedN + 30)

				loaded := liveRoundTrip(t, li)
				defer loaded.Close()
				queries := s.liveQueries([]Vec{pool.Vector(5), pool.Vector(seedN + 30)})
				for _, q := range queries {
					want, err := li.Query(q, QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := loaded.Query(q, QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, [][]Match{got}, [][]Match{want})
					wk, err := li.TopK(q, 4)
					if err != nil {
						t.Fatal(err)
					}
					gk, err := loaded.TopK(q, 4)
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, [][]Match{gk}, [][]Match{wk})
				}
				li.Close()

				// The loaded index continues the id sequence and stays
				// cold-equivalent through further mutations and a merge.
				s.li = loaded
				wantNext := loaded.Stats().NextID
				if id := s.add(pool.Vector(seedN + 40)); id != wantNext {
					t.Fatalf("%v: post-load Add id %d, want %d", alg, id, wantNext)
				}
				s.del(s.ids[10])
				loaded.Compact()
				cold := s.coldEquivalent(pool.Dim(), tc.measure, tc.cfg, opts)
				s.checkEquivalent(cold, s.liveQueries(nil), fmt.Sprintf("%v/post-load", alg))
			}
		})
	}
}

// TestLiveSnapshotVersionErrors pins the cross-loading errors: each
// loader names the other when handed the wrong format version.
func TestLiveSnapshotVersionErrors(t *testing.T) {
	ds := smallDataset(t, 40).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
		Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if _, err := ix.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	li, err := LiveFrom(ix, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	if _, err := li.Add(ds.Vector(0)); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := li.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadLiveIndex(bytes.NewReader(v1.Bytes()), LiveConfig{}); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("ReadLiveIndex(v1 bytes) = %v, want ErrSnapshotVersion", err)
	}
	if _, err := ReadIndex(bytes.NewReader(v2.Bytes())); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("ReadIndex(v2 bytes) = %v, want ErrSnapshotVersion", err)
	}
	// Truncation and corruption still surface as the typed errors.
	if _, err := ReadLiveIndex(bytes.NewReader(v2.Bytes()[:v2.Len()-3]), LiveConfig{}); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("truncated live snapshot = %v, want ErrSnapshotChecksum", err)
	}
	mangled := append([]byte(nil), v2.Bytes()...)
	mangled[len(mangled)/2] ^= 0x40
	if _, err := ReadLiveIndex(bytes.NewReader(mangled), LiveConfig{}); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("corrupted live snapshot = %v, want ErrSnapshotChecksum", err)
	}
}

// TestHostileLiveSection forges the live section's id-space header
// with values beyond 32 bits, and a delta vector Add refuses. Each
// must fail as ErrSnapshotFormat on every architecture: a decoder that
// narrowed the header to int first would read 2^32 + 60 as 60 where
// int is 32 bits wide, and accept the file.
func TestHostileLiveSection(t *testing.T) {
	ds := smallDataset(t, 60).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
		Options{Algorithm: LSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	li, err := LiveFrom(ix, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	var v2 bytes.Buffer
	if _, err := li.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	// The section opens with start (60 here) and memN (0), as u64s.
	highWord := func(at int) func([]byte) []byte {
		return func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[at+4:], 1)
			return p
		}
	}
	forged := map[string][]byte{
		"start 2^32+60": editSection(t, v2.Bytes(), sectLive, highWord(0)),
		"memN 2^32":     editSection(t, v2.Bytes(), sectLive, highWord(8)),
	}

	// Malformed id state, which InspectFile reads too to count live
	// vectors: it must refuse what the loader refuses. The id map of
	// the 60 base vectors follows start and memN as a u64 count and
	// values, then comes the tombstone count.
	idState := func(edit func(p []byte) []byte) []byte {
		return editSection(t, v2.Bytes(), sectLive, func(p []byte) []byte {
			if n := binary.LittleEndian.Uint64(p[16:]); n != 60 {
				t.Fatalf("id map holds %d ids, want 60", n)
			}
			return edit(p)
		})
	}
	const tombCount = 24 + 8*60
	for name, snap := range map[string][]byte{
		"id map not increasing": idState(func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[32:], 0)
			return p
		}),
		"tombstone past the delta": idState(func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[tombCount:], 1)
			return slices.Concat(p[:tombCount+8], binary.LittleEndian.AppendUint64(nil, 1000), p[tombCount+8:])
		}),
	} {
		path := filepath.Join(t.TempDir(), "forged.snap")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := InspectFile(path); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: InspectFile: %v, want ErrSnapshotFormat", name, err)
		}
		forged[name] = snap
	}

	// A delta vector Add would refuse: a cosine AllPairs index admits
	// only unit-norm vectors, so this forgery scales the one delta
	// vector to norm 1.71. Loading it would leave a delta no merge can
	// fold.
	apIx, err := NewIndex(ds, Cosine, EngineConfig{Seed: 5, SignatureBits: 512},
		Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	apLive, err := LiveFrom(apIx, LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer apLive.Close()
	if _, err := apLive.Add(ds.Vector(0)); err != nil {
		t.Fatal(err)
	}
	var apV2 bytes.Buffer
	if _, err := apLive.WriteTo(&apV2); err != nil {
		t.Fatal(err)
	}
	forged["delta norm 1.71"] = editSection(t, apV2.Bytes(), sectLive, func(p []byte) []byte {
		r := snapshot.NewReader(p)
		r.U64()
		r.U64()
		r.U64s()
		r.U64s()
		head := p[:len(p)-r.Remaining()]
		mc, err := vector.ReadCollectionSnapshot(r)
		if err != nil || len(mc.Vecs) != 1 {
			t.Fatalf("delta collection: %v (%d vectors)", err, len(mc.Vecs))
		}
		for i := range mc.Vecs[0].Val {
			mc.Vecs[0].Val[i] *= 1.71
		}
		var tail bytes.Buffer
		w := snapshot.NewWriter(&tail)
		mc.WriteSnapshot(w)
		return append(head, tail.Bytes()...)
	})

	// An empty section frame after the live section, re-sealed: the
	// refusal must come before the live index (and its merge
	// goroutine) exists.
	trailing := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(
		append([]byte{}, v2.Bytes()[:v2.Len()-4]...), sectLive+1), 0)
	forged["trailing section"] = binary.LittleEndian.AppendUint32(trailing, snapshot.Checksum(trailing))

	base := runtime.NumGoroutine()
	for name, snap := range forged {
		got, err := ReadLiveIndex(bytes.NewReader(snap), LiveConfig{})
		if err == nil {
			got.Close()
		}
		if !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: %v, want ErrSnapshotFormat", name, err)
		}
	}
	requireNoGoroutineLeak(t, base)
}

// TestLiveSnapshotFileHelpers covers the SaveFile/OpenLiveFile pair,
// including atomic replacement of an existing snapshot.
func TestLiveSnapshotFileHelpers(t *testing.T) {
	ds := smallDataset(t, 40).Binarize()
	li, err := NewLiveIndex(ds, Jaccard, EngineConfig{Seed: 8},
		Options{Algorithm: LSHApprox, Threshold: 0.4}, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := li.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := li.Add(ds.Vector(1)); err != nil {
		t.Fatal(err)
	}
	li.Delete(3)
	if err := li.SaveFile(path); err != nil { // atomic overwrite
		t.Fatal(err)
	}
	loaded, err := OpenLiveFile(path, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := loaded.Stats(), li.Stats(); got.Base != want.Base || got.Delta != want.Delta ||
		got.Live != want.Live || got.Dead != want.Dead || got.NextID != want.NextID {
		t.Fatalf("loaded stats %+v, want %+v", got, want)
	}
	want, err := li.Query(ds.Vector(2), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(ds.Vector(2), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, [][]Match{got}, [][]Match{want})
}

// TestGoldenLiveSnapshot reads the committed version-2 snapshot — the
// compatibility contract of the live format: if HEAD can no longer
// read it, version 2 has been broken and LiveSnapshotVersion must be
// bumped instead. Regenerate deliberately with -update after such a
// bump.
func TestGoldenLiveSnapshot(t *testing.T) {
	const path = "testdata/v2.snap"
	if *updateGolden {
		li := goldenLiveIndex(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := li.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		li.Close()
	}
	loaded, err := OpenLiveFile(path, LiveConfig{})
	if err != nil {
		t.Fatalf("HEAD cannot read the committed v2 snapshot: %v", err)
	}
	defer loaded.Close()
	// The golden index must also still serve: replay the same script
	// from source data and require identical results.
	fresh := goldenLiveIndex(t)
	defer fresh.Close()
	ds := goldenDataset()
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

// goldenLiveIndex replays the fixed mutation script behind
// testdata/v2.snap: seed with the golden corpus, ingest its first
// eight vectors again (self-similar pairs), delete a few, merge, and
// leave a small delta and tombstone shadow in the snapshot.
func goldenLiveIndex(t *testing.T) *LiveIndex {
	t.Helper()
	ds := goldenDataset()
	li, err := NewLiveIndex(ds, Cosine, EngineConfig{Seed: 41, SignatureBits: 256},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.6}, LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := li.Add(ds.Vector(i)); err != nil {
			t.Fatal(err)
		}
	}
	li.Delete(2)
	li.Delete(ds.Len() + 1)
	li.Compact()
	for i := 8; i < 12; i++ {
		if _, err := li.Add(ds.Vector(i)); err != nil {
			t.Fatal(err)
		}
	}
	li.Delete(5)
	return li
}

// FuzzReadLiveIndex fuzzes the version-2 decoder as FuzzReadIndex does
// version 1: any input may fail but must never panic, and whatever
// decodes must answer Query and TopK. It is seeded with live snapshots
// of every measure holding delta vectors and tombstones, and with the
// forged files that once loaded and then panicked.
func FuzzReadLiveIndex(f *testing.F) {
	noMerge := LiveConfig{MaxDelta: -1, MaxRatio: -1}
	for _, c := range []struct {
		m Measure
		o Options
	}{
		{Cosine, Options{Algorithm: LSHBayesLSH, Threshold: 0.6}},
		{Jaccard, Options{Algorithm: LSHBayesLSH, Threshold: 0.5}},
		{BinaryCosine, Options{Algorithm: AllPairsBayesLSHLite, Threshold: 0.6}},
	} {
		li, err := LiveFrom(fuzzIndex(f, c.m, c.o), noMerge)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range []Vec{fuzzDataset().Vector(1), NewVec(map[uint32]float64{2: 0.6, 5: 0.8})} {
			if _, err := li.Add(q); err != nil {
				f.Fatal(err)
			}
		}
		li.Delete(0)
		li.Delete(3)
		var buf bytes.Buffer
		if _, err := li.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		li.Close()
		f.Add(buf.Bytes())
	}
	for _, c := range forgedSnapshots(f) {
		f.Add(c.v2)
	}
	serve := func(t *testing.T, data []byte) {
		li, err := ReadLiveIndex(bytes.NewReader(data), noMerge)
		if err != nil {
			return
		}
		defer li.Close()
		serveFuzzed(t, li.Query, li.TopK)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		serve(t, data)
		// Re-sealed like FuzzReadIndex's inputs, so the section decoders
		// behind the checksum stay fuzzed.
		if len(data) >= len(snapshotMagic)+8 {
			serve(t, resealStream(data, LiveSnapshotVersion))
		}
	})
}
