package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCtxCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := RunCtx(ctx, 1000, 4, 1, func(lo, hi, slot int) {
		if ran.Add(1) == 5 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers may finish the batches they already held, but the
	// dispatch must stop: nowhere near all 1000 batches run.
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d batches ran after cancellation", n)
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := RunCtx(ctx, 10, 2, 1, func(lo, hi, slot int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("pre-canceled RunCtx executed a batch")
	}
}

func TestSlotsCollect(t *testing.T) {
	var sink Slots[int]
	err := StreamCtx(context.Background(), 10, 2, 3, func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}, sink.Put)
	if err != nil {
		t.Fatal(err)
	}
	got := sink.Flat()
	if len(got) != 10 {
		t.Fatalf("collected %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; batch order broken", i, v)
		}
	}
}

// TestSlotsReassembleCompletionOrder holds slot 0 back until every
// other batch has been emitted, so outputs reach the sink in
// completion order with the first batch last; the sink must still
// reassemble batch order.
func TestSlotsReassembleCompletionOrder(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 2, 4, 7} {
		for _, batch := range []int{1, 3, n} {
			nb := Count(n, batch)
			release := make(chan struct{})
			var (
				sink    Slots[int]
				emitted int
				order   []int
			)
			err := StreamCtx(context.Background(), n, workers, batch, func(lo, hi int) []int {
				if lo == 0 && workers > 1 && nb > 1 {
					<-release // slow slot 0: finishes after every other batch
				}
				var out []int
				for i := lo; i < hi; i++ {
					out = append(out, i)
				}
				return out
			}, func(slot int, v []int) error {
				order = append(order, slot)
				if emitted++; emitted == nb-1 && workers > 1 && nb > 1 {
					close(release)
				}
				return sink.Put(slot, v)
			})
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 && nb > 1 && order[len(order)-1] != 0 {
				t.Fatalf("workers=%d batch=%d: emit order %v, want slot 0 last", workers, batch, order)
			}
			got := sink.Flat()
			if len(got) != n {
				t.Fatalf("workers=%d batch=%d: collected %d items, want %d", workers, batch, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("workers=%d batch=%d: got[%d] = %d; batch order broken", workers, batch, i, v)
				}
			}
		}
	}
}

func TestStreamCtxDeliversAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sum int
		err := StreamCtx(context.Background(), 100, workers, 9, func(lo, hi int) int {
			return hi - lo
		}, func(_, n int) error {
			sum += n
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum != 100 {
			t.Fatalf("workers=%d: delivered %d items, want 100", workers, sum)
		}
	}
}

func TestStreamCtxEmitErrorAborts(t *testing.T) {
	sentinel := errors.New("stop now")
	for _, workers := range []int{1, 4} {
		emitted := 0
		err := StreamCtx(context.Background(), 1000, workers, 1, func(lo, hi int) int {
			time.Sleep(100 * time.Microsecond)
			return lo
		}, func(int, int) error {
			emitted++
			if emitted == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if emitted != 3 {
			t.Fatalf("workers=%d: emit ran %d times after error", workers, emitted)
		}
	}
}

func TestStreamCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	err := StreamCtx(ctx, 1000, 4, 1, func(lo, hi int) int {
		time.Sleep(200 * time.Microsecond)
		return lo
	}, func(int, int) error {
		if emitted.Add(1) == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := emitted.Load(); n > 100 {
		t.Fatalf("emit ran %d times after cancellation", n)
	}
}

func TestStopperNilAndBackground(t *testing.T) {
	var nilStop *Stopper
	if nilStop.Stopped() {
		t.Fatal("nil stopper reports stopped")
	}
	if nilStop.Err() != nil {
		t.Fatal("nil stopper reports an error")
	}
	nilStop.Close() // must not panic

	st := NewStopper(context.Background())
	defer st.Close()
	if st.Stopped() {
		t.Fatal("background stopper reports stopped")
	}
}

func TestStopperTrips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStopper(ctx)
	defer st.Close()
	if st.Stopped() {
		t.Fatal("stopper tripped before cancellation")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !st.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("stopper did not trip after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", st.Err())
	}
}
