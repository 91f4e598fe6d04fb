// Incremental banded tables for the live index's delta segment: the
// same band keys as the built BitsTables/MinhashTables, but grown one
// vector at a time as ingest appends to the memtable. A vector's
// bucket membership depends only on its own signature and the banding
// plan, never on its neighbours, so a query probing base tables plus a
// delta built under the same (k, l, multiProbe) plan sees exactly the
// candidate set a cold build over the combined corpus would produce —
// the property the live index's determinism contract rests on.
//
// Deltas are caller-synchronized: Add calls must be serialized with
// each other and with Probe calls (the live memtable wraps them in its
// RWMutex). Probe takes the visible id bound n so a reader pinned to
// an older generation never sees vectors appended after its snapshot.
// Add panics unless ids increase, so every bucket stays ascending and
// a probe can cut each bucket at n by binary search.

package lshindex

import (
	"fmt"
	"slices"
)

// BitsDelta is an incrementally grown set of l banded hash tables over
// packed bit signatures.
type BitsDelta struct {
	k, l       int
	multiProbe bool
	tables     []map[uint64][]int32
	last       int32 // the last id added, -1 before the first
}

// NewBitsDelta creates empty delta tables under the banding plan
// (k bits per band, l bands, 1-step multi-probe at query time when
// multiProbe is set) — the plan of the base tables it rides next to.
func NewBitsDelta(k, l int, multiProbe bool) *BitsDelta {
	t := make([]map[uint64][]int32, l)
	for i := range t {
		t[i] = make(map[uint64][]int32)
	}
	return &BitsDelta{k: k, l: l, multiProbe: multiProbe, tables: t, last: -1}
}

// Add inserts vector id with signature sig (covering at least k*l
// bits) into every band's bucket. Ids must be appended in increasing
// order so bucket lists stay sorted; Add panics on any other id.
func (d *BitsDelta) Add(id int32, sig []uint64) {
	d.last = checkIncreasing("BitsDelta", d.last, id)
	for band := 0; band < d.l; band++ {
		key := bitsBand(sig, band*d.k, d.k)
		d.tables[band][key] = append(d.tables[band][key], id)
	}
}

// Probe returns the ids < n sharing a bucket with sig in any band
// (plus, with multi-probe, any bucket at Hamming distance one from
// sig's band key), deduplicated and in ascending id order — the delta
// twin of BitsTables.Probe.
func (d *BitsDelta) Probe(sig []uint64, n int32) []int32 {
	s := probePool.Get().(*probeScratch)
	for band := 0; band < d.l; band++ {
		key := bitsBand(sig, band*d.k, d.k)
		s.ids.AddAll(visible(d.tables[band][key], n))
		if d.multiProbe {
			for b := 0; b < d.k; b++ {
				s.ids.AddAll(visible(d.tables[band][key^(1<<b)], n))
			}
		}
	}
	return s.release()
}

// MinhashDelta is an incrementally grown set of l banded hash tables
// over minhash signatures.
type MinhashDelta struct {
	k, l   int
	tables []map[uint64][]int32
	last   int32 // the last id added, -1 before the first
}

// NewMinhashDelta creates empty delta tables under the banding plan
// (k minhashes per band, l bands).
func NewMinhashDelta(k, l int) *MinhashDelta {
	t := make([]map[uint64][]int32, l)
	for i := range t {
		t[i] = make(map[uint64][]int32)
	}
	return &MinhashDelta{k: k, l: l, tables: t, last: -1}
}

// Add inserts vector id with signature sig (covering at least k*l
// hashes) into every band's bucket. Ids must be appended in increasing
// order so bucket lists stay sorted; Add panics on any other id.
func (d *MinhashDelta) Add(id int32, sig []uint32) {
	d.last = checkIncreasing("MinhashDelta", d.last, id)
	scratch := make([]uint64, (d.k+1)/2)
	for band := 0; band < d.l; band++ {
		key := minhashBandKey(sig, band, d.k, scratch)
		d.tables[band][key] = append(d.tables[band][key], id)
	}
}

// Probe returns the ids < n sharing a bucket with sig in any band,
// deduplicated and in ascending id order — the delta twin of
// MinhashTables.Probe.
func (d *MinhashDelta) Probe(sig []uint32, n int32) []int32 {
	s := probePool.Get().(*probeScratch)
	words := s.keyWords(d.k)
	for band := 0; band < d.l; band++ {
		s.ids.AddAll(visible(d.tables[band][minhashBandKey(sig, band, d.k, words)], n))
	}
	return s.release()
}

// visible returns the bucket's ids below the visibility bound n.
// Buckets are appended in id order, so they are a prefix.
func visible(bucket []int32, n int32) []int32 {
	end, _ := slices.BinarySearch(bucket, n)
	return bucket[:end]
}

// checkIncreasing returns id if it follows last, the previous id added
// to the named delta, and panics otherwise.
func checkIncreasing(delta string, last, id int32) int32 {
	if id <= last {
		panic(fmt.Sprintf("lshindex: %s.Add(%d) after id %d: ids must increase", delta, id, last))
	}
	return id
}
