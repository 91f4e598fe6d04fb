// Incremental inverted index for the live index's delta segment. The
// built Index prunes its posting lists with corpus-global prefix
// bounds (per-feature maximum weights), which cannot be maintained
// under ingest: one new vector can change the bound — and therefore
// the indexed prefix — of every vector already indexed. The delta
// therefore indexes every feature of every vector, unfiltered. That
// keeps Add O(|x|) and makes the probe a lossless superset of any
// bound-filtered candidate set: a pair can meet a positive similarity
// threshold only by sharing at least one feature, so every qualifying
// delta vector is emitted, and the extra sub-threshold candidates are
// exactly what the AllPairs pipelines' verification already rejects
// on either path (see the package comment in query.go).
//
// A Delta is caller-synchronized, like the lshindex deltas: Add calls
// serialize with each other and with Probe (the live memtable's
// RWMutex).

package allpairs

import (
	"fmt"
	"slices"
	"sync"

	"bayeslsh/internal/pair"
	"bayeslsh/internal/vector"
)

// Delta is an incrementally grown, unfiltered inverted index over a
// delta segment's vectors (in the index's work representation).
type Delta struct {
	lists map[uint32][]int32
	last  int32 // the last id added, -1 before the first
}

// NewDelta returns an empty delta index.
func NewDelta() *Delta { return &Delta{lists: make(map[uint32][]int32), last: -1} }

// Add indexes vector id under every one of its features. Ids must be
// appended in increasing order so posting lists stay sorted; Add
// panics on any other id.
func (d *Delta) Add(id int32, v vector.Vector) {
	if id <= d.last {
		panic(fmt.Sprintf("allpairs: Delta.Add(%d) after id %d: ids must increase", id, d.last))
	}
	d.last = id
	for _, f := range v.Ind {
		d.lists[f] = append(d.lists[f], id)
	}
}

// deltaSets pools the id-sets Delta probes deduplicate in; each is
// returned empty.
var deltaSets = sync.Pool{New: func() any { return new(pair.IDSet) }}

// Probe returns the ids < n of delta vectors sharing at least one
// feature with q, deduplicated and in ascending id order — a lossless
// superset of the corpus vectors whose similarity to q meets any
// positive threshold. Posting lists are ascending, so each is cut at n
// by binary search.
func (d *Delta) Probe(q vector.Vector, n int32) []int32 {
	s := deltaSets.Get().(*pair.IDSet)
	for _, f := range q.Ind {
		list := d.lists[f]
		end, _ := slices.BinarySearch(list, n)
		s.AddAll(list[:end])
	}
	ids := s.Ascending()
	deltaSets.Put(s)
	return ids
}
