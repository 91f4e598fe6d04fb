// Benchmarks of disk-resident serving: the open-versus-load cost a
// serving process pays at startup, and steady-state query latency
// from the mapping versus the heap. Run with:
//
//	go test -bench 'OpenVsLoad|MmapQuery' -benchmem
//
// The acceptance criterion of the disk subsystem shows up in
// OpenVsLoad's B/op column: LoadFile of a v3 file allocates a few
// row-header slices over the mapping while LoadFile of a v1 file
// materializes the whole corpus — orders of magnitude apart on the same snapshot, and the gap
// grows with corpus size.
// docs/PERSISTENCE.md and docs/TUNING.md quote a reference run.
package bayeslsh_test

import (
	"os"
	"path/filepath"
	"testing"

	"bayeslsh"
)

// benchDiskPaths saves the warmed reference index once in both
// formats and returns the two snapshot paths.
func benchDiskPaths(b *testing.B) (v1, v3 string) {
	b.Helper()
	ix, ds := benchSnapshotIndex(b)
	_ = ds
	dir := b.TempDir()
	v1 = filepath.Join(dir, "index.snap")
	if err := ix.SaveFile(v1); err != nil {
		b.Fatal(err)
	}
	v3 = filepath.Join(dir, "index.v3.snap")
	if err := ix.SaveFileV3(v3); err != nil {
		b.Fatal(err)
	}
	return v1, v3
}

// BenchmarkOpenVsLoad measures serving-process startup: mmap-opening
// the v3 snapshot against heap-loading the v1 snapshot of the same
// index. Open's time and bytes stay flat as the corpus grows (header
// page, directory, metadata, row headers); Load's scale with it.
func BenchmarkOpenVsLoad(b *testing.B) {
	v1, v3 := benchDiskPaths(b)
	fi, err := os.Stat(v3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := bayeslsh.LoadFile(v3)
			if err != nil {
				b.Fatal(err)
			}
			ix.Close()
		}
		b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bayeslsh.LoadFile(v1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMmapQuery measures steady-state point-query latency served
// from the mapping against the same index heap-loaded — the rent paid
// for the O(pages touched) startup, once the touched pages are warm.
func BenchmarkMmapQuery(b *testing.B) {
	v1, v3 := benchDiskPaths(b)
	ds, err := bayeslsh.Synthetic("RCV1-sim")
	if err != nil {
		b.Fatal(err)
	}
	ds = ds.TfIdf().Normalize()
	run := func(b *testing.B, ix *bayeslsh.Index) {
		b.Helper()
		// Warm the first-touch verification outside the timed region.
		if _, err := ix.Query(ds.Vector(0), bayeslsh.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Query(ds.Vector(i%ds.Len()), bayeslsh.QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Disk", func(b *testing.B) {
		ix, err := bayeslsh.LoadFile(v3)
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		run(b, ix)
	})
	b.Run("Heap", func(b *testing.B) {
		ix, err := bayeslsh.LoadFile(v1)
		if err != nil {
			b.Fatal(err)
		}
		run(b, ix)
	})
}
