package cluster_test

import (
	"testing"

	"bayeslsh"
	"bayeslsh/internal/cluster"
	"bayeslsh/internal/harness"
)

// TestLocalShardsShareOneFamily: NewLocal's shards hash with one
// hyperplane family object. No exported API reaches a shard's family,
// so the test reads the registry's family for the shards' parameters
// (harness.HashFamily). A family holds one row per (feature, block) it
// has hashed, whatever its seed, so it must hold exactly the rows one
// index over the whole corpus materializes under another seed — more
// than either shard's slice needs alone. A shard hashing with a family
// of its own would leave its rows out of the count.
func TestLocalShardsShareOneFamily(t *testing.T) {
	ds, _ := harness.Corpus(t, bayeslsh.Cosine, 60)
	opts := bayeslsh.Options{Algorithm: bayeslsh.LSH, Threshold: 0.6}
	cfg := func(seed uint64) bayeslsh.EngineConfig {
		return bayeslsh.EngineConfig{Seed: seed, SignatureBits: 512}
	}
	r, err := cluster.NewLocal(ds, bayeslsh.Cosine, cfg(4521), opts, harness.LiveConfig(), 2, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	shared := harness.HashFamily(ds.Dim(), cfg(4521)).Rows()

	rows := func(part *bayeslsh.Dataset, seed uint64) int {
		li, err := bayeslsh.NewLiveIndex(part, bayeslsh.Cosine, cfg(seed), opts, harness.LiveConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer li.Close()
		return harness.HashFamily(part.Dim(), cfg(seed)).Rows()
	}
	if whole := rows(ds, 4522); shared != whole {
		t.Fatalf("the shards' family holds %d rows, one index over the whole corpus %d", shared, whole)
	}
	parts, _, err := cluster.Partition(ds, 2, 4521)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if n := rows(p, 4523+uint64(i)); n >= shared {
			t.Fatalf("shard %d alone needs %d of the %d rows: the corpus cannot tell one family from two", i, n, shared)
		}
	}
}
