package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCount(t *testing.T) {
	cases := []struct{ n, batch, want int }{
		{0, 10, 0}, {-3, 10, 0}, {1, 10, 1}, {10, 10, 1},
		{11, 10, 2}, {25, 10, 3}, {5, 0, 5}, {5, -1, 5},
	}
	for _, c := range cases {
		if got := Count(c.n, c.batch); got != c.want {
			t.Errorf("Count(%d, %d) = %d, want %d", c.n, c.batch, got, c.want)
		}
	}
}

// coverage checks that every item is visited exactly once and that
// each slot sees its own contiguous range.
func coverage(t *testing.T, n, workers, batch int) {
	t.Helper()
	visits := make([]int32, n)
	if err := RunCtx(context.Background(), n, workers, batch, func(lo, hi, slot int) {
		if lo != slot*max(batch, 1) {
			t.Errorf("slot %d starts at %d", slot, lo)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("n=%d workers=%d batch=%d: item %d visited %d times", n, workers, batch, i, v)
		}
	}
}

func TestRunCoversAllItemsOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 3, 8, 2000} {
			for _, batch := range []int{0, 1, 7, 64, 5000} {
				coverage(t, n, workers, batch)
			}
		}
	}
}

func TestRunSequentialOrder(t *testing.T) {
	var seen []int
	if err := RunCtx(context.Background(), 10, 1, 3, func(lo, hi, slot int) { seen = append(seen, slot) }); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("slots = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("slots = %v, want %v", seen, want)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	if c := Chunk(1000, 4, 16); c != 62 {
		t.Errorf("Chunk(1000, 4, 16) = %d, want 62", c)
	}
	if c := Chunk(10, 4, 16); c != 16 {
		t.Errorf("small n should clamp to min, got %d", c)
	}
	if c := Chunk(10, 0, 0); c < 1 {
		t.Errorf("Chunk must be at least 1, got %d", c)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// collect runs f over n items through StreamCtx into a Slots sink.
func collect(n, workers, batch int, f func(lo, hi int) []int) ([]int, error) {
	var sink Slots[int]
	if err := StreamCtx(context.Background(), n, workers, batch, f, sink.Put); err != nil {
		return nil, err
	}
	return sink.Flat(), nil
}

func TestCollectMatchesSequential(t *testing.T) {
	square := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i*i)
		}
		return out
	}
	want := square(0, 137)
	for _, workers := range []int{0, 1, 4, 9} {
		for _, batch := range []int{1, 7, 64, 1000} {
			got, err := collect(137, workers, batch, square)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d batch=%d: %d items, want %d", workers, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d batch=%d: item %d = %d, want %d", workers, batch, i, got[i], want[i])
				}
			}
		}
	}
	if out, err := collect(0, 4, 8, square); err != nil || len(out) != 0 {
		t.Errorf("collecting 0 items returned %v, %v", out, err)
	}
}

func TestFillEnsureConcurrent(t *testing.T) {
	const items, units = 100, 64
	f := NewFill(items)
	data := make([][]int, items)
	for i := range data {
		data[i] = make([]int, units)
	}
	var fills atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			depth := 8 * (g%8 + 1)
			for id := 0; id < items; id++ {
				f.Ensure(int32(id), depth, func(from int) int {
					fills.Add(1)
					for u := from; u < depth; u++ {
						data[id][u] = id*1000 + u
					}
					return depth
				})
				// After Ensure returns, the prefix must be readable.
				for u := 0; u < depth; u++ {
					if data[id][u] != id*1000+u {
						t.Errorf("item %d unit %d = %d", id, u, data[id][u])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for id := 0; id < items; id++ {
		if got := f.Filled(int32(id)); got != units {
			t.Fatalf("item %d filled to %d, want %d", id, got, units)
		}
	}
	// Each item fills monotonically: at most 8 distinct depths.
	if n := fills.Load(); n > items*8 {
		t.Errorf("%d fill invocations for %d items", n, items)
	}
	if f.Elapsed() < 0 {
		t.Error("negative elapsed")
	}
}
