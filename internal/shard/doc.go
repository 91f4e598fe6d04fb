// Package shard provides the batched worker-pool primitives behind
// the library's parallel pipelines — both the batch search and the
// query-serving index are built on them.
//
// # RunCtx, StreamCtx, Slots
//
// RunCtx divides n work items into contiguous batches and feeds batch
// indices through a channel to a fixed pool of workers; every batch
// knows its slot, so callers write results into slot-owned state and
// reassemble them in input order regardless of worker scheduling.
// StreamCtx hands each batch's output, with its slot, to an emit
// callback on the calling goroutine as the batch completes, which is
// what bounds resident results in the streaming search API. Gathering
// is a sink on the stream, not a second dispatcher: Slots stores
// outputs by slot in any arrival order and concatenates them in batch
// order, so the batch search is the stream collected. Chunk picks a
// batch size that divides work into roughly four batches per worker
// when no natural unit exists.
//
// All parallel stages (LSH banding, AllPairs probing, signature
// hashing, BayesLSH verification, exact verification, batch querying)
// go through these, which is what keeps them deterministic for a fixed
// seed: the work a batch performs never depends on which worker
// executes it or when — only the batch's position in the input does.
//
// # Cancellation (Stopper)
//
// Every primitive stops dispatching batches the moment its context is
// done, drains its workers, and returns ctx.Err(). For abort points
// finer than a batch, a Stopper turns the context into an atomic flag
// (set by context.AfterFunc) that hot loops poll between individual
// items at ~1 ns per check — the per-round and per-posting abort
// points of the verification and candidate-generation kernels.
// NewStopper is the one place that knows whether a context can be
// canceled at all; Run is RunCtx under context.Background() for the
// few callers that have no context.
//
// # Fill
//
// Fill coordinates lazily filled per-item state shared by concurrent
// readers and writers — the synchronization core of the signature
// stores. Writers to an item serialize on a striped lock; readers
// synchronize through an atomic per-item fill counter stored with
// release semantics after the data writes complete, so a reader that
// observes Filled(id) >= n may read the first n units of item id's
// data without locking.
package shard
