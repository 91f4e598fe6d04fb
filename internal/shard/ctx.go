// Cooperative cancellation for the sharded pipeline. Three layers of
// granularity share one mechanism:
//
//   - RunCtx / StreamCtx stop dispatching batches once the context is
//     done, so a canceled search never starts new units of work;
//   - a Stopper turns the context into an atomic flag that hot loops
//     poll between individual items (a ~1 ns load, against the mutex a
//     direct ctx.Err() call would take), so a canceled search also
//     aborts the batch it is in the middle of;
//   - StreamCtx delivers per-batch outputs to the caller as they
//     complete, bounding resident results to the batches in flight.
//
// Both dispatchers drain their worker goroutines before returning: a
// canceled call leaves nothing running. There is one implementation
// per primitive: a context that can never be canceled (for example
// context.Background()) runs the same code, and pays one load of a
// flag that never trips per check.

package shard

import (
	"context"
	"sync"
	"sync/atomic"
)

// Stopper adapts a context for cheap, frequent cancellation checks: an
// atomic flag set by context.AfterFunc the moment the context is done.
// Hot loops call Stopped between items instead of selecting on
// ctx.Done() or calling ctx.Err(), both of which are far more
// expensive than an atomic load.
//
// A nil *Stopper is valid and never stops — callers that thread an
// optional stopper through shared code pass nil for "not cancelable".
// Close releases the AfterFunc registration; it must be called once
// the guarded work finishes (defer st.Close()).
type Stopper struct {
	ctx     context.Context
	tripped atomic.Bool
	release func() bool
}

// NewStopper watches ctx. For contexts that can never be canceled the
// stopper registers nothing and Stopped is a plain load of a flag that
// stays false.
func NewStopper(ctx context.Context) *Stopper {
	s := &Stopper{ctx: ctx}
	if ctx.Done() != nil {
		s.release = context.AfterFunc(ctx, func() { s.tripped.Store(true) })
	}
	return s
}

// Stopped reports whether the watched context is done. Safe on a nil
// receiver (false) and for any number of concurrent callers.
func (s *Stopper) Stopped() bool { return s != nil && s.tripped.Load() }

// Err returns the watched context's error: nil until cancellation,
// context.Canceled or context.DeadlineExceeded after. Nil-safe.
func (s *Stopper) Err() error {
	if s == nil {
		return nil
	}
	return s.ctx.Err()
}

// Close releases the context watcher. Idempotent and nil-safe.
func (s *Stopper) Close() {
	if s != nil && s.release != nil {
		s.release()
	}
}

// RunCtx divides n items into contiguous batches of size batch and
// calls f(lo, hi, slot) for each batch covering items [lo, hi), where
// slot is the batch index in 0..Count(n, batch)-1 (batches are
// contiguous and in order: slot s covers [s*batch, min((s+1)*batch,
// n))). With workers <= 1 the batches run sequentially on the calling
// goroutine; otherwise they are distributed over min(workers, batches)
// goroutines through a channel, so short batches load-balance
// dynamically.
//
// f must be safe for concurrent invocation when workers > 1; writing
// only to state owned by its slot (plus atomic or worker-local state)
// is the intended pattern.
//
// Cancellation is cooperative: no batch starts after ctx is done, and
// RunCtx returns ctx.Err() with every worker goroutine drained.
// Batches already in flight run to completion unless f itself polls a
// Stopper; whatever f wrote for completed or abandoned batches must be
// discarded by the caller when RunCtx returns an error.
func RunCtx(ctx context.Context, n, workers, batch int, f func(lo, hi, slot int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if batch < 1 {
		batch = 1
	}
	nb := Count(n, batch)
	if nb == 0 {
		return ctx.Err()
	}
	if workers > nb {
		workers = nb
	}
	st := NewStopper(ctx)
	defer st.Close()
	if workers <= 1 {
		for s := 0; s < nb && !st.Stopped(); s++ {
			lo := s * batch
			hi := min(lo+batch, n)
			f(lo, hi, s)
		}
		return ctx.Err()
	}
	jobs := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if st.Stopped() {
					continue // drain without executing
				}
				lo := s * batch
				hi := min(lo+batch, n)
				f(lo, hi, s)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for s := 0; s < nb; s++ {
		select {
		case jobs <- s:
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return ctx.Err()
}

// StreamCtx runs f over contiguous batches of n items on a worker pool
// (the RunCtx contract) and delivers each batch's output to emit on the
// calling goroutine, with the batch's slot, in batch completion order —
// not batch order — as soon as it is ready. At most about `workers`
// undelivered outputs are resident at once, which is what bounds the
// memory of the streaming search pipeline: results leave through emit
// instead of accumulating. A caller that needs batch order stores
// outputs by slot (Slots); no batch ever waits for an earlier one.
//
// emit runs on the calling goroutine only, so it needs no
// synchronization. If emit returns an error, no further batch starts,
// in-flight outputs are discarded, and StreamCtx returns that error.
// If ctx is canceled, StreamCtx stops dispatching and returns
// ctx.Err(). Either way every worker goroutine is drained before
// StreamCtx returns.
func StreamCtx[T any](ctx context.Context, n, workers, batch int, f func(lo, hi int) T, emit func(slot int, v T) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if batch < 1 {
		batch = 1
	}
	nb := Count(n, batch)
	if nb == 0 {
		return ctx.Err()
	}
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		st := NewStopper(ctx)
		defer st.Close()
		for s := 0; s < nb; s++ {
			if st.Stopped() {
				return ctx.Err()
			}
			lo := s * batch
			hi := min(lo+batch, n)
			if err := emit(s, f(lo, hi)); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	// inner cancels the pool when emit fails, on top of the caller's
	// ctx; the stopper watches inner so workers see both causes.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	st := NewStopper(inner)
	defer st.Close()

	jobs := make(chan int, workers)
	type output struct {
		slot int
		v    T
	}
	outputs := make(chan output, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if st.Stopped() {
					continue
				}
				lo := s * batch
				hi := min(lo+batch, n)
				v := f(lo, hi)
				select {
				case outputs <- output{s, v}:
				case <-inner.Done():
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for s := 0; s < nb; s++ {
			select {
			case jobs <- s:
			case <-inner.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outputs)
	}()

	var emitErr error
	for o := range outputs {
		if emitErr != nil || st.Stopped() {
			continue // drain
		}
		if err := emit(o.slot, o.v); err != nil {
			emitErr = err
			cancel()
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}

// Slots is the collecting sink of StreamCtx: Put stores each batch's
// output under its slot as it arrives, in any order, and Flat
// concatenates them in slot order — so a collected stream equals a
// sequential pass regardless of scheduling. The zero value is ready to
// use. Like emit, Put runs on one goroutine at a time.
type Slots[T any] struct{ outs [][]T }

// Put stores v as the output of batch slot. It never fails; the error
// result lets Put serve directly as an emit callback.
func (s *Slots[T]) Put(slot int, v []T) error {
	if slot >= len(s.outs) {
		s.outs = append(s.outs, make([][]T, slot+1-len(s.outs))...)
	}
	s.outs[slot] = v
	return nil
}

// Flat returns every stored output concatenated in slot order.
func (s *Slots[T]) Flat() []T {
	total := 0
	for _, o := range s.outs {
		total += len(o)
	}
	out := make([]T, 0, total)
	for _, o := range s.outs {
		out = append(out, o...)
	}
	return out
}
