// Built hash tables for query serving: the candidate-generation
// functions in this package enumerate colliding pairs and discard
// their bands, which is right for one batch join but wasteful when the
// same corpus answers many point queries. BitsTables and MinhashTables
// keep the l banded tables resident so a single out-of-corpus
// signature can be probed against them: the query's band keys are
// computed exactly as the corpus keys were, so a query equal to corpus
// vector i collides with precisely the vectors i collides with in the
// batch scan — the property the engine's query-vs-batch consistency
// guarantee rests on. Tables are immutable after Build and safe for
// any number of concurrent Probe calls.

package lshindex

import (
	"sort"

	"bayeslsh/internal/shard"
)

// BitsTables is a built set of l banded hash tables over packed bit
// signatures (cosine hyperplane hashes), serving point probes.
type BitsTables struct {
	k, l       int
	multiProbe bool
	tables     []map[uint64][]int32
}

// BuildBits builds l banded tables of k bits per band over the corpus
// signatures, sharding table construction over workers goroutines.
// multiProbe enables 1-step multi-probe at query time (each probe also
// inspects the k buckets whose band key differs in one bit), matching
// CandidatesBitsMultiProbeCtx's collision condition.
func BuildBits(sigs [][]uint64, k, l, workers int, multiProbe bool) (*BitsTables, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	t := &BitsTables{k: k, l: l, multiProbe: multiProbe, tables: make([]map[uint64][]int32, l)}
	shard.Run(l, workers, 1, func(_, _, band int) {
		buckets := make(map[uint64][]int32)
		fillBitsBuckets(buckets, sigs, band, k)
		t.tables[band] = buckets
	})
	return t, nil
}

// Bands returns the number of tables l.
func (t *BitsTables) Bands() int { return t.l }

// BandK returns the number of bits per band.
func (t *BitsTables) BandK() int { return t.k }

// Probe returns the ids of corpus vectors sharing a bucket with sig in
// any band (plus, with multi-probe, any bucket at Hamming distance one
// from sig's band key), deduplicated and in ascending id order. sig
// must cover at least k*l bits.
func (t *BitsTables) Probe(sig []uint64) []int32 {
	seen := make(map[int32]struct{})
	for band := 0; band < t.l; band++ {
		key := bitsBand(sig, band*t.k, t.k)
		for _, id := range t.tables[band][key] {
			seen[id] = struct{}{}
		}
		if t.multiProbe {
			for b := 0; b < t.k; b++ {
				for _, id := range t.tables[band][key^(1<<b)] {
					seen[id] = struct{}{}
				}
			}
		}
	}
	return sortedIDs(seen)
}

// MinhashTables is a built set of l banded hash tables over minhash
// signatures, serving point probes.
type MinhashTables struct {
	k, l   int
	tables []map[uint64][]int32
}

// BuildMinhash builds l banded tables of k minhashes per band over the
// corpus signatures, sharding table construction over workers
// goroutines.
func BuildMinhash(sigs [][]uint32, k, l, workers int) (*MinhashTables, error) {
	if err := validateMinhash(sigs, k, l); err != nil {
		return nil, err
	}
	t := &MinhashTables{k: k, l: l, tables: make([]map[uint64][]int32, l)}
	shard.Run(l, workers, 1, func(_, _, band int) {
		buckets := make(map[uint64][]int32)
		scratch := make([]uint64, (k+1)/2)
		fillMinhashBuckets(buckets, sigs, band, k, scratch)
		t.tables[band] = buckets
	})
	return t, nil
}

// Bands returns the number of tables l.
func (t *MinhashTables) Bands() int { return t.l }

// BandK returns the number of minhashes per band.
func (t *MinhashTables) BandK() int { return t.k }

// Probe returns the ids of corpus vectors sharing a bucket with sig in
// any band, deduplicated and in ascending id order. sig must cover at
// least k*l hashes.
func (t *MinhashTables) Probe(sig []uint32) []int32 {
	seen := make(map[int32]struct{})
	scratch := make([]uint64, (t.k+1)/2)
	for band := 0; band < t.l; band++ {
		key := minhashBandKey(sig, band, t.k, scratch)
		for _, id := range t.tables[band][key] {
			seen[id] = struct{}{}
		}
	}
	return sortedIDs(seen)
}

// minhashBandKey computes the band key of hash positions
// [band*k, (band+1)*k) of sig — the same key fillMinhashBuckets
// assigns, factored out so table fills and probes cannot drift apart.
func minhashBandKey(sig []uint32, band, k int, scratch []uint64) uint64 {
	for i := range scratch {
		scratch[i] = 0
	}
	from := band * k
	for i := 0; i < k; i++ {
		scratch[i/2] |= uint64(sig[from+i]) << (32 * (i % 2))
	}
	return fnv1a64(uint64(band)+1, scratch)
}

// sortedIDs flattens a seen-set into an ascending id slice.
func sortedIDs(seen map[int32]struct{}) []int32 {
	if len(seen) == 0 {
		return nil
	}
	ids := make([]int32, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
