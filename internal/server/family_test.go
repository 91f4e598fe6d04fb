package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"bayeslsh"
	"bayeslsh/internal/harness"
	"bayeslsh/internal/sighash"
)

// TestServedLoadSharesFamily: a /v1/load hot swap to a snapshot with
// the served index's parameters, loaded while the old index still
// serves, hashes with the old index's hyperplane family; a snapshot
// under another seed hashes with that seed's family. No exported API
// reaches an index's family, so the test watches the registry's family
// of each seed (harness.HashFamily) while the swapped-in index hashes
// a query on a feature no corpus vector has: only the family it hashes
// with materializes rows for that feature.
func TestServedLoadSharesFamily(t *testing.T) {
	ds, maps := corpus(t, bayeslsh.Cosine, 30)
	opts := bayeslsh.Options{Algorithm: bayeslsh.LSH, Threshold: 0.6}
	cfg := func(seed uint64) bayeslsh.EngineConfig {
		return bayeslsh.EngineConfig{Seed: seed, SignatureBits: 512}
	}
	build := func(seed uint64) *bayeslsh.LiveIndex {
		li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine, cfg(seed), opts, harness.LiveConfig())
		if err != nil {
			t.Fatal(err)
		}
		return li
	}
	snapshot := func(seed uint64) string {
		li := build(seed)
		defer li.Close()
		path := filepath.Join(t.TempDir(), fmt.Sprintf("seed%d.snap", seed))
		if err := li.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same, other := snapshot(4531), snapshot(4532)

	old := build(4531)
	srv := New(old, Config{Loader: func(path string) (Serveable, error) {
		return bayeslsh.OpenLiveFile(path, harness.LiveConfig())
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fam, otherFam := harness.HashFamily(ds.Dim(), cfg(4531)), harness.HashFamily(ds.Dim(), cfg(4532))

	used := map[uint32]bool{}
	for _, m := range maps {
		for f := range m {
			used[f] = true
		}
	}
	var unused []uint32
	for f := uint32(0); len(unused) < 2; f++ {
		if !used[f] {
			unused = append(unused, f)
		}
	}
	for i, c := range []struct {
		path          string
		grows, stays  *sighash.BlockFamily
		growing, kept string
	}{
		{same, fam, otherFam, "the old index's family", "the other seed's family"},
		{other, otherFam, fam, "the other seed's family", "the old index's family"},
	} {
		resp := postJSON(t, ts.URL+"/v1/load", fmt.Sprintf(`{"path":%q}`, c.path))
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("load %s: status %d: %s", c.path, resp.StatusCode, b)
		}
		resp.Body.Close()
		grew, kept := c.grows.Rows(), c.stays.Rows()
		servedQuery(t, ts.URL, fmt.Sprintf("%d:1", unused[i]), 0)
		if c.grows.Rows() == grew {
			t.Errorf("load %d: the query on a new feature left %s at %d rows", i, c.growing, grew)
		}
		if n := c.stays.Rows(); n != kept {
			t.Errorf("load %d: the query grew %s from %d to %d rows", i, c.kept, kept, n)
		}
	}
	runtime.KeepAlive(old)
	srv.index().Close()
}
