package bayeslsh

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
)

// indexFamily and liveFamily return the hyperplane family an index,
// or a live index's current base, hashes with.
func indexFamily(ix *Index) *sighash.BlockFamily { return bitStore(ix.engine()).Family() }

func liveFamily(li *LiveIndex) *sighash.BlockFamily { return indexFamily(li.gen.Load().base) }

// TestIndexesShareHashFamily pins the reach of the family registry:
// every index path over one (dim, SignatureBits, Seed) — NewIndex,
// NewLiveIndex, the v1, v2 and v3 loaders and a live merge — hashes
// with one family object, and the runtime knobs do not split it, while
// another seed, signature budget or dimensionality gets a family of
// its own. Every index stays alive to the end, so the registry cannot
// drop the family between steps.
func TestIndexesShareHashFamily(t *testing.T) {
	ds := smallDataset(t, 40).TfIdf().Normalize()
	cfg := EngineConfig{Seed: 4501, SignatureBits: 1024}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	lc := LiveConfig{MaxDelta: -1, MaxRatio: -1}
	ix, err := NewIndex(ds, Cosine, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	fam := indexFamily(ix)
	if fam.Rows() == 0 {
		t.Fatal("the build materialized no projection row")
	}
	var holders []any
	check := func(label string, x any, got *sighash.BlockFamily) {
		t.Helper()
		holders = append(holders, x)
		if got != fam {
			t.Errorf("%s hashes with family %p, want the shared %p", label, got, fam)
		}
	}
	index := func(label string, x *Index, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Cleanup(func() { x.Close() })
		check(label, x, indexFamily(x))
	}
	liveIx := func(label string, x *LiveIndex, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Cleanup(x.Close)
		check(label, x, liveFamily(x))
	}
	file := func(name string, b []byte) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	knobs := cfg
	knobs.Parallelism, knobs.BatchSize = 3, 5
	x, err := NewIndex(ds, Cosine, knobs, opts)
	index("NewIndex with other runtime knobs", x, err)
	li, err := NewLiveIndex(ds, Cosine, cfg, opts, lc)
	liveIx("NewLiveIndex", li, err)

	v1, v2 := v1Bytes(t, ix), v2Bytes(t, ix)
	x, err = ReadIndex(bytes.NewReader(v1))
	index("ReadIndex (v1)", x, err)
	x, err = LoadFile(file("v1.snap", v1))
	index("LoadFile (v1)", x, err)
	l, err := ReadLiveIndex(bytes.NewReader(v2), lc)
	liveIx("ReadLiveIndex (v2)", l, err)
	l, err = OpenLiveFile(file("v2.snap", v2), lc)
	liveIx("OpenLiveFile (v2)", l, err)
	v3 := v3File(t, ix)
	x, err = LoadFile(v3)
	index("LoadFile (v3)", x, err)
	l, err = OpenLiveFile(v3, lc)
	liveIx("OpenLiveFile (v3)", l, err)

	if _, err := li.Add(ds.Vector(3)); err != nil {
		t.Fatal(err)
	}
	if err := li.Compact(); err != nil {
		t.Fatal(err)
	}
	if li.Stats().Merges == 0 {
		t.Fatal("Compact did not merge")
	}
	liveIx("the merged base", li, nil)

	wider := &Dataset{c: &vector.Collection{Dim: ds.Dim() + 1, Vecs: ds.c.Vecs}}
	for _, c := range []struct {
		name string
		ds   *Dataset
		cfg  EngineConfig
	}{
		{"seed", ds, EngineConfig{Seed: 4502, SignatureBits: 1024}},
		{"signature bits", ds, EngineConfig{Seed: 4501, SignatureBits: 512}},
		{"dimension", wider, cfg},
	} {
		other, err := NewIndex(c.ds, Cosine, c.cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if indexFamily(other) == fam {
			t.Errorf("another %s shares the family", c.name)
		}
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(holders)
}

// TestSearchKeepsPrivateFamily: an engine that only searches builds a
// family of its own, with no rows, even while an index over the same
// parameters is alive, and its join materializes no row in the shared
// family — so a join's cost does not depend on what else the process
// serves. An index built afterwards on that engine keeps its private
// family, over which the engine's store is already hashed.
func TestSearchKeepsPrivateFamily(t *testing.T) {
	ds := smallDataset(t, 60).TfIdf().Normalize()
	cfg := EngineConfig{Seed: 4503, SignatureBits: 1024}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	ix, err := NewIndex(ds, Cosine, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared := indexFamily(ix)
	before := shared.Rows()

	e, err := NewEngine(ds, Cosine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fam := bitStore(e).Family()
	if fam == shared {
		t.Fatal("a searching engine hashes with the index's shared family")
	}
	if n := fam.Rows(); n != 0 {
		t.Fatalf("a fresh engine's family starts with %d rows, want 0", n)
	}
	if _, err := e.Search(opts); err != nil {
		t.Fatal(err)
	}
	if fam.Rows() == 0 {
		t.Fatal("the search materialized no row in its own family")
	}
	if n := shared.Rows(); n != before {
		t.Fatalf("the search grew the shared family from %d to %d rows", before, n)
	}
	built, err := e.BuildIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	if indexFamily(built) != fam {
		t.Fatal("BuildIndex after a search swapped the engine's hashed family")
	}
	runtime.KeepAlive(ix)
}

// TestConcurrentSharedFamilyBuilds races first builds of indexes over
// one set of parameters: they all hash with one family (run under
// -race, this also checks the registry's and the family's locking),
// and each answers exactly as a build alone would.
func TestConcurrentSharedFamilyBuilds(t *testing.T) {
	ds := smallDataset(t, 60).TfIdf().Normalize()
	cfg := EngineConfig{Seed: 4504, SignatureBits: 1024, Parallelism: 2}
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	ixs := make([]*Index, 4)
	var wg sync.WaitGroup
	for i := range ixs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix, err := NewIndex(ds, Cosine, cfg, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ixs[i] = ix
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, ix := range ixs {
		if indexFamily(ix) != indexFamily(ixs[0]) {
			t.Fatalf("index %d hashes with its own family", i)
		}
	}
	// A private family gives the reference answers: the engine hashes
	// with it before its index is built.
	e, err := NewEngine(ds, Cosine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bitStore(e)
	ref, err := e.BuildIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	if indexFamily(ref) == indexFamily(ixs[0]) {
		t.Fatal("the reference index shares the family")
	}
	for q := 0; q < ds.Len(); q += 7 {
		want, err := ref.Query(ds.Vector(q), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, ix := range ixs {
			got, err := ix.Query(ds.Vector(q), QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("index %d, query %d: %v, want %v", i, q, got, want)
			}
		}
	}
}
