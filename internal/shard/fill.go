package shard

import (
	"sync"
	"sync/atomic"
	"time"
)

// fillStripes is the number of lock stripes guarding per-item fills.
const fillStripes = 64

// Fill coordinates lazily filled per-item state shared by concurrent
// readers and writers — the synchronization core of the signature
// stores. Writers to an item serialize on a striped lock; readers
// synchronize through an atomic per-item fill counter: a reader that
// observes Filled(id) >= n may read the first n units of item id's
// data without further locking, because the counter is stored with
// release semantics only after the data writes complete.
type Fill struct {
	filled []int32
	locks  [fillStripes]sync.Mutex
	nanos  atomic.Int64
	floor  atomic.Int32 // a fill count every item is known to have reached
}

// NewFill tracks n items, all initially at fill count 0.
func NewFill(n int) *Fill { return &Fill{filled: make([]int32, n)} }

// Filled returns item id's current fill count.
func (f *Fill) Filled(id int32) int { return int(atomic.LoadInt32(&f.filled[id])) }

// Watermark returns a fill count every item is known to have reached
// (raised by Raise), so a reader that needs no more than that may skip
// Ensure altogether.
func (f *Fill) Watermark() int { return int(f.floor.Load()) }

// Raise records that every item is filled to at least n units. The
// watermark only grows; the caller must have completed every fill it
// vouches for before calling Raise.
func (f *Fill) Raise(n int) {
	for {
		cur := f.floor.Load()
		if int(cur) >= n || f.floor.CompareAndSwap(cur, int32(n)) {
			return
		}
	}
}

// Elapsed returns the cumulative time spent inside fill callbacks.
// Under concurrent fills it sums per-goroutine time and can exceed
// the wall clock of the enclosing phase.
func (f *Fill) Elapsed() time.Duration { return time.Duration(f.nanos.Load()) }

// Restore sets item id's fill count directly — the snapshot-loading
// path, which repopulates item data wholesale and then declares it
// filled. It must run before the Fill is shared with concurrent
// Ensure/Filled callers (loading is single-goroutine), and after the
// item's first n data units have been written.
func (f *Fill) Restore(id int32, n int) {
	atomic.StoreInt32(&f.filled[id], int32(n))
}

// Ensure guarantees item id is filled to at least n units. If it is
// not, fill(from) runs under the item's stripe lock; it must extend
// the item's data from `from` units and return the new fill count
// (>= n). Concurrent Ensure calls for the same item serialize; calls
// for items on different stripes proceed independently.
func (f *Fill) Ensure(id int32, n int, fill func(from int) int) {
	if int(atomic.LoadInt32(&f.filled[id])) >= n {
		return
	}
	mu := &f.locks[uint32(id)%fillStripes]
	mu.Lock()
	defer mu.Unlock()
	if int(atomic.LoadInt32(&f.filled[id])) >= n {
		return
	}
	start := time.Now()
	to := fill(int(f.filled[id]))
	atomic.StoreInt32(&f.filled[id], int32(to))
	f.nanos.Add(int64(time.Since(start)))
}
