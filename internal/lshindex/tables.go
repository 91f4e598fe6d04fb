// Built hash tables for query serving: the candidate-generation
// functions in this package enumerate colliding pairs and discard
// their bands, which is right for one batch join but wasteful when the
// same corpus answers many point queries. BitsTables and MinhashTables
// keep the l banded tables resident so a single out-of-corpus
// signature can be probed against them: the query's band keys are
// computed exactly as the corpus keys were, so a query equal to corpus
// vector i collides with precisely the vectors i collides with in the
// batch scan — the property the engine's query-vs-batch consistency
// guarantee rests on. Built, stream-decoded (snapshot.go) and mapped
// tables share one layout (view.go), are immutable and are safe for
// any number of concurrent Probe calls.

package lshindex

import (
	"slices"
	"sync"

	"bayeslsh/internal/pair"
)

// runTables is the state both table kinds share: l bands of k hashes
// over a corpus of n ids, each band one sorted bucket run.
type runTables struct {
	k, l  int
	n     int
	bands []bandRun
}

// Bands returns the number of tables l.
func (t *runTables) Bands() int { return t.l }

// BandK returns the number of hashes (bits or minhashes) per band.
func (t *runTables) BandK() int { return t.k }

// Validate walks every bucket run — strictly ascending keys, every run
// decodable, non-empty and inside the corpus — so probes can decode
// without error paths. A mapped section is validated on first touch;
// built and stream-decoded tables pass by construction.
func (t *runTables) Validate() error {
	for bi := range t.bands {
		if err := t.bands[bi].validate(bi, t.n); err != nil {
			return err
		}
	}
	return nil
}

// BitsTables is a set of l banded hash tables over packed bit
// signatures (cosine hyperplane hashes), serving point probes.
type BitsTables struct {
	runTables
	multiProbe bool
}

// BitsView is BitsTables: tables opened over a mapped v3 section and
// tables built in memory are one type. The alias keeps the view's name
// for callers that still spell it.
type BitsView = BitsTables

// BuildBits builds l banded tables of k bits per band over the corpus
// signatures, sharding table construction over workers goroutines.
// multiProbe enables 1-step multi-probe at query time (each probe also
// inspects the k buckets whose band key differs in one bit), matching
// CandidatesBitsMultiProbeCtx's collision condition.
func BuildBits(sigs [][]uint64, k, l, workers int, multiProbe bool) (*BitsTables, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	return &BitsTables{runTables: buildRuns(len(sigs), k, l, workers, bitsKeys(sigs, k)), multiProbe: multiProbe}, nil
}

// Probe returns the ids of corpus vectors sharing a bucket with sig in
// any band (plus, with multi-probe, any bucket at Hamming distance one
// from sig's band key), deduplicated and in ascending id order. sig
// must cover at least k*l bits. Each probed bucket is decoded straight
// into the pooled probe id-set, so the result is the probe's one
// allocation.
func (t *BitsTables) Probe(sig []uint64) []int32 {
	s := probePool.Get().(*probeScratch)
	for band := 0; band < t.l; band++ {
		key := bitsBand(sig, band*t.k, t.k)
		t.bands[band].addBucket(&s.ids, key, t.n)
		if t.multiProbe {
			for b := 0; b < t.k; b++ {
				t.bands[band].addBucket(&s.ids, key^(1<<b), t.n)
			}
		}
	}
	return s.release()
}

// MinhashTables is a set of l banded hash tables over minhash
// signatures, serving point probes.
type MinhashTables struct {
	runTables
}

// MinhashView is MinhashTables, as BitsView is BitsTables.
type MinhashView = MinhashTables

// BuildMinhash builds l banded tables of k minhashes per band over the
// corpus signatures, sharding table construction over workers
// goroutines.
func BuildMinhash(sigs [][]uint32, k, l, workers int) (*MinhashTables, error) {
	if err := validateMinhash(sigs, k, l); err != nil {
		return nil, err
	}
	return &MinhashTables{buildRuns(len(sigs), k, l, workers, minhashKeys(sigs, k))}, nil
}

// Probe returns the ids of corpus vectors sharing a bucket with sig in
// any band, deduplicated and in ascending id order. sig must cover at
// least k*l hashes.
func (t *MinhashTables) Probe(sig []uint32) []int32 {
	s := probePool.Get().(*probeScratch)
	words := s.keyWords(t.k)
	for band := 0; band < t.l; band++ {
		t.bands[band].addBucket(&s.ids, minhashBandKey(sig, band, t.k, words), t.n)
	}
	return s.release()
}

// minhashBandKey computes the band key of hash positions
// [band*k, (band+1)*k) of sig — the one key function of banding,
// table builds and probes, so they cannot drift apart.
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
// probePool: the id-set that deduplicates the probed buckets and the
// minhash band-key words.
// Sets grow to the largest id any probe has added and are always
// returned empty, so probes of any table or delta share the pool.
type probeScratch struct {
	ids pair.IDSet
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
