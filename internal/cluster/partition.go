package cluster

import (
	"errors"
	"fmt"

	"bayeslsh"
	"bayeslsh/internal/rng"
)

// ErrBadShards reports a shard count the corpus cannot support: less
// than one, or more shards than seed vectors (every shard needs a
// non-empty seed corpus, the NewLiveIndex contract).
var ErrBadShards = errors.New("cluster: shard count outside [1, corpus size]")

// ErrGlobalPrior reports a serving configuration the router refuses:
// the full-Bayes Jaccard pipelines without OneBitMinhash verify with
// a Beta prior fitted over corpus-wide candidate pairs, and pairs
// spanning two shards are invisible to every shard-local enumeration,
// so no sharded execution can reproduce the single-node prior. Set
// Options.OneBitMinhash (prior-free, the paper's §4.3 extension) or
// choose a non-Bayes pipeline.
var ErrGlobalPrior = errors.New(
	"cluster: pipeline fits a corpus-global prior and cannot be sharded; set Options.OneBitMinhash or use a non-Bayes pipeline")

// Range is one shard's contiguous global-id range [Lo, Hi) over the
// seed corpus.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Plan records how a seed corpus was split: the contiguous global-id
// range of each shard and a per-shard identity token. A router built
// from a plan preserves the seed ids verbatim — global id g of the
// single-node corpus lives on the shard whose range contains g, at
// local id g-Lo.
type Plan struct {
	Shards int `json:"shards"`
	// Ranges[i] is shard i's seed-id range; ranges are adjacent and
	// cover [0, corpus size) in order.
	Ranges []Range `json:"ranges"`
	// Tokens[i] = rng.Derive(seed, shards, i) names shard i's slot in
	// this plan: a fingerprint carried through save/load manifests so
	// a reassembled cluster can be checked against the plan it was cut
	// from. Tokens are identity only — shard engines deliberately share
	// the master EngineConfig.Seed, because bit-identical results
	// require every shard to hash with the same seeded families (see
	// docs/SHARDING.md).
	Tokens []uint64 `json:"tokens"`
}

// PlanFor computes the balanced contiguous partition of n seed
// vectors over the given shard count: every shard gets n/shards
// vectors and the first n%shards get one extra, so shard sizes differ
// by at most one.
func PlanFor(n, shards int, seed uint64) (Plan, error) {
	if shards < 1 || shards > n {
		return Plan{}, fmt.Errorf("%w: %d shards over %d vectors", ErrBadShards, shards, n)
	}
	p := Plan{
		Shards: shards,
		Ranges: make([]Range, shards),
		Tokens: make([]uint64, shards),
	}
	lo := 0
	for i := 0; i < shards; i++ {
		size := n / shards
		if i < n%shards {
			size++
		}
		p.Ranges[i] = Range{Lo: lo, Hi: lo + size}
		p.Tokens[i] = rng.Derive(seed, uint64(shards), uint64(i))
		lo += size
	}
	return p, nil
}

// Partition splits ds into the plan's contiguous slices. The slices
// are views sharing ds's vector storage (Dataset.Slice), so
// partitioning a corpus copies no vector data; vector g of ds becomes
// vector g-Lo of its shard, bit-identical.
func Partition(ds *bayeslsh.Dataset, shards int, seed uint64) ([]*bayeslsh.Dataset, Plan, error) {
	plan, err := PlanFor(ds.Len(), shards, seed)
	if err != nil {
		return nil, Plan{}, err
	}
	parts := make([]*bayeslsh.Dataset, shards)
	for i, r := range plan.Ranges {
		parts[i] = ds.Slice(r.Lo, r.Hi)
	}
	return parts, plan, nil
}

// priorCoupled mirrors LiveIndex.priorBearing: whether the pipeline's
// verification depends on the corpus-fitted Jaccard Beta prior, the
// one corpus-global quantity a shard-local index cannot maintain. The
// cross-shard equivalence matrix exercises every measure × pipeline,
// so a new prior-coupled configuration that this predicate misses
// fails the equivalence suite rather than serving wrong results.
func priorCoupled(m bayeslsh.Measure, o bayeslsh.Options) bool {
	return m == bayeslsh.Jaccard && !o.OneBitMinhash && o.Algorithm.UsesBayes()
}
