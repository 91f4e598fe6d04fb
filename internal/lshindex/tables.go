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
	"slices"
	"sync"

	"bayeslsh/internal/pair"
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
// must cover at least k*l bits. The buckets are deduplicated in a
// pooled id-set; the result is the probe's one allocation.
func (t *BitsTables) Probe(sig []uint64) []int32 {
	s := probePool.Get().(*probeScratch)
	for band := 0; band < t.l; band++ {
		key := bitsBand(sig, band*t.k, t.k)
		s.ids.AddAll(t.tables[band][key])
		if t.multiProbe {
			for b := 0; b < t.k; b++ {
				s.ids.AddAll(t.tables[band][key^(1<<b)])
			}
		}
	}
	return s.release()
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
	s := probePool.Get().(*probeScratch)
	words := s.keyWords(t.k)
	for band := 0; band < t.l; band++ {
		s.ids.AddAll(t.tables[band][minhashBandKey(sig, band, t.k, words)])
	}
	return s.release()
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

// probeScratch is one point probe's working state, drawn from
// probePool: the id-set that deduplicates the probed buckets, a buffer
// the mapped views decode bucket runs into, and the minhash band-key
// words. Sets grow to the largest id any probe has added and are
// always returned empty, so probes of any table, view or delta share
// the pool.
type probeScratch struct {
	ids pair.IDSet
	buf []int32
	key []uint64
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// keyWords returns the scratch words minhashBandKey packs a band of k
// minhashes into.
func (s *probeScratch) keyWords(k int) []uint64 {
	s.key = slices.Grow(s.key[:0], (k+1)/2)[:(k+1)/2]
	return s.key
}

// release reads the probed ids out ascending into one exact-size slice
// (nil when there are none) and returns the scratch, empty, to the
// pool.
func (s *probeScratch) release() []int32 {
	ids := s.ids.Ascending()
	probePool.Put(s)
	return ids
}
