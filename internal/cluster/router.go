package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bayeslsh"
	"bayeslsh/internal/planner"
	"bayeslsh/internal/shard"
)

// Config carries the router's fan-out knobs; the zero value selects
// the defaults noted on each field.
type Config struct {
	// ShardTimeout is the per-shard deadline applied to every scatter
	// call, independent of (and nested inside) the caller's context: a
	// shard that hangs past it is reported as unavailable instead of
	// stalling the whole query. 0 disables the per-shard deadline —
	// the caller's own deadline still applies.
	ShardTimeout time.Duration
	// Workers bounds the scatter fan-out: at most this many shard
	// calls run concurrently, on reused workers (internal/shard). 0
	// selects NumCPU.
	Workers int
}

// shardLoc addresses one post-seed vector: which shard holds it and
// at which local id.
type shardLoc struct {
	shard, local int
}

// Router fronts N shard backends with the LiveIndex surface: queries
// scatter to every shard and gather into results bit-identical to a
// single-node index over the same corpus; mutations route to one
// shard under a deterministic id assignment. Safe for any number of
// concurrent queriers overlapping mutations, like the LiveIndex it
// mirrors; mutations serialize among themselves.
type Router struct {
	cfg      Config
	measure  bayeslsh.Measure
	opts     bayeslsh.Options
	dim      int
	backends []Backend // fixed at construction
	plan     Plan

	// cstats/pplan are the whole-corpus planner statistics and the
	// pipeline decision, filled by NewLocal (New, assembling opaque
	// backends, derives pplan from the resolved options and leaves
	// cstats zero — no router-side corpus exists to collect over).
	cstats bayeslsh.CorpusStats
	pplan  bayeslsh.Plan

	// mu guards the id state. Queries take it only after the gather —
	// the scatter itself runs lock-free — so a slow shard never blocks
	// a mutation and vice versa.
	mu     sync.RWMutex
	added  [][]int          // per shard: global ids of post-seed adds, in local-id order
	loc    map[int]shardLoc // global added id -> location
	next   int              // next global id
	rr     int              // round-robin add cursor
	closed bool
}

// NewLocal partitions ds over the given shard count and builds one
// in-process LiveIndex per slice — every shard sharing cfg.Seed, so
// all hash families are the single-node families and results stay
// bit-identical (Plan.Tokens carry the per-shard rng.Derive identity
// tokens). Prior-coupled configurations are refused with
// ErrGlobalPrior; see the package comment.
func NewLocal(ds *bayeslsh.Dataset, m bayeslsh.Measure, cfg bayeslsh.EngineConfig,
	opts bayeslsh.Options, lc bayeslsh.LiveConfig, shards int, rcfg Config) (*Router, error) {
	// AutoPipeline resolves here, against the WHOLE corpus, before
	// partitioning: per-shard planning could diverge (shard statistics
	// differ), breaking cross-shard bit-identity — and the planner must
	// know the corpus is sharded, so it never picks a prior-coupled
	// pipeline that the check below would refuse.
	cstats := bayeslsh.CorpusStats{}
	pplan := bayeslsh.Plan{}
	if opts.AutoPipeline {
		cstats = ds.CorpusStats()
		pplan = bayeslsh.ChoosePlan(cstats, bayeslsh.PlanQuery{
			Measure:   m,
			Threshold: opts.Threshold,
			Serving:   true,
			Sharded:   true,
		})
		opts.Algorithm = bayeslsh.Algorithm(pplan.Pipeline)
		opts.AutoPipeline = false
	}
	if priorCoupled(m, opts) {
		return nil, fmt.Errorf("%w (%v %v)", ErrGlobalPrior, m, opts.Algorithm)
	}
	parts, plan, err := Partition(ds, shards, cfg.Seed)
	if err != nil {
		return nil, err
	}
	backends := make([]Backend, 0, shards)
	for i, part := range parts {
		li, err := bayeslsh.NewLiveIndex(part, m, cfg, opts, lc)
		if err != nil {
			for _, b := range backends {
				b.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		backends = append(backends, li)
	}
	ref := backends[0].(*bayeslsh.LiveIndex)
	r := newRouter(backends, plan, ref.Measure(), ref.Options(), ref.Dim(), rcfg)
	if cstats.Zero() {
		cstats = ds.CorpusStats()
	}
	r.cstats = cstats
	if len(pplan.Rules) > 0 {
		r.pplan = pplan
	} else {
		r.pplan = ref.Plan()
	}
	return r, nil
}

// New assembles a router over caller-built backends — fresh shards
// whose corpora are exactly the plan's slices (HTTP clients to shard
// daemons, or LiveIndexes built elsewhere). m, opts and dim must be
// the shards' resolved identity (e.g. LiveIndex.Measure/Options/Dim
// of any shard; they are all built alike). Every shard's id state is
// checked against the plan: a shard whose next local id is not its
// slice size was not freshly cut from this plan, and mis-wiring is
// refused here rather than surfacing as mistranslated result ids.
func New(backends []Backend, plan Plan, m bayeslsh.Measure, opts bayeslsh.Options,
	dim int, cfg Config) (*Router, error) {
	if len(backends) != plan.Shards || plan.Shards != len(plan.Ranges) {
		return nil, fmt.Errorf("cluster: %d backends for a %d-shard plan", len(backends), plan.Shards)
	}
	if priorCoupled(m, opts) {
		return nil, fmt.Errorf("%w (%v %v)", ErrGlobalPrior, m, opts.Algorithm)
	}
	for i, b := range backends {
		if got, want := b.Stats().NextID, plan.Ranges[i].Hi-plan.Ranges[i].Lo; got != want {
			return nil, fmt.Errorf("cluster: shard %d next local id %d, want %d — not a fresh cut of this plan", i, got, want)
		}
	}
	return newRouter(backends, plan, m, opts, dim, cfg), nil
}

// newRouter wires the struct up with fresh id state.
func newRouter(backends []Backend, plan Plan, m bayeslsh.Measure, opts bayeslsh.Options,
	dim int, cfg Config) *Router {
	return &Router{
		cfg:      cfg,
		measure:  m,
		opts:     opts,
		dim:      dim,
		backends: backends,
		plan:     plan,
		pplan:    bayeslsh.Plan{Pipeline: planner.Pipeline(opts.Algorithm)},
		added:    make([][]int, plan.Shards),
		loc:      make(map[int]shardLoc),
		next:     plan.Ranges[plan.Shards-1].Hi,
	}
}

// Measure returns the cluster's similarity measure.
func (r *Router) Measure() bayeslsh.Measure { return r.measure }

// Options returns the resolved search options every shard serves.
func (r *Router) Options() bayeslsh.Options { return r.opts }

// Threshold returns the similarity threshold the cluster serves at.
func (r *Router) Threshold() float64 { return r.opts.Threshold }

// Dim returns the feature-space dimensionality, shared by all shards.
func (r *Router) Dim() int { return r.dim }

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.backends) }

// Plan returns the partition plan the cluster was cut with.
func (r *Router) Plan() Plan { return r.plan }

// CorpusStats returns the whole-corpus planner statistics — what
// AutoPipeline resolution saw, not any one shard's slice. Zero for
// routers assembled with New over opaque backends.
func (r *Router) CorpusStats() bayeslsh.CorpusStats { return r.cstats }

// PipelinePlan returns the cluster's pipeline decision (named apart
// from Plan, which this package already uses for the partition plan).
// Rules are present only when AutoPipeline made the choice.
func (r *Router) PipelinePlan() bayeslsh.Plan { return r.pplan }

// Len returns the number of live vectors across all shards.
func (r *Router) Len() int {
	n := 0
	for _, b := range r.backends {
		n += b.Len()
	}
	return n
}

// Stats aggregates the shards' segment shapes: counts sum, NextID is
// the router's global id cursor, LastMerge is the slowest shard's,
// and LastMergeErr surfaces the first failing shard's error.
func (r *Router) Stats() bayeslsh.LiveStats {
	r.mu.RLock()
	next := r.next
	r.mu.RUnlock()
	st := bayeslsh.LiveStats{NextID: next}
	for _, b := range r.backends {
		s := b.Stats()
		st.Base += s.Base
		st.Delta += s.Delta
		st.Live += s.Live
		st.Dead += s.Dead
		st.Merges += s.Merges
		if s.LastMerge > st.LastMerge {
			st.LastMerge = s.LastMerge
		}
		if st.LastMergeErr == nil {
			st.LastMergeErr = s.LastMergeErr
		}
	}
	return st
}

// queryThreshold pre-validates the per-query threshold override
// before any fan-out, with the single-node error text.
func (r *Router) queryThreshold(opts bayeslsh.QueryOptions) error {
	t := opts.Threshold
	if t == 0 {
		return nil
	}
	if t < r.opts.Threshold || t > 1 {
		return fmt.Errorf("%w: %v outside [%v, 1]", bayeslsh.ErrBadThreshold, t, r.opts.Threshold)
	}
	return nil
}

// workers resolves the fan-out bound.
func (r *Router) workers() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.NumCPU()
}

// shardCtx derives one scatter call's context: the caller's, bounded
// by the per-shard deadline when configured.
func (r *Router) shardCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.cfg.ShardTimeout > 0 {
		return context.WithTimeout(ctx, r.cfg.ShardTimeout)
	}
	return context.WithCancel(ctx)
}

// scatter runs f once per shard on the bounded worker pool, each call
// under its own per-shard context. All-or-nothing: if the caller's
// ctx ends, the context error is returned (matching the single-node
// contract); otherwise any shard failure yields a *UnavailableError
// and the caller must discard all per-shard output.
func (r *Router) scatter(ctx context.Context, f func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	n := len(r.backends)
	errs := make([]error, n)
	shard.RunCtx(ctx, n, r.workers(), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			cctx, cancel := r.shardCtx(ctx)
			errs[i] = f(cctx, i)
			cancel()
		}
	})
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	var fail *UnavailableError
	for i, e := range errs {
		if e != nil {
			if fail == nil {
				fail = &UnavailableError{Failures: make(map[int]error)}
			}
			fail.Failures[i] = e
		}
	}
	if fail == nil {
		return nil
	}
	for i, e := range errs {
		if e == nil {
			fail.Answered = append(fail.Answered, i)
		}
	}
	return fail
}

// globalizeLocked rewrites one shard's result ids from local to
// global, in place. Local seed ids shift by the shard's range; local
// delta ids map through the per-shard add list. Both maps are
// monotone, so a list sorted by local id stays sorted by global id.
// Caller holds mu (read suffices): the gather runs after every
// backend call returned, and the add lists are append-only, so the
// map always covers every local id a shard could have answered with.
func (r *Router) globalizeLocked(sh int, ms []bayeslsh.Match) error {
	rg := r.plan.Ranges[sh]
	seedN := rg.Hi - rg.Lo
	for j, m := range ms {
		switch {
		case m.ID >= 0 && m.ID < seedN:
			ms[j].ID = rg.Lo + m.ID
		case m.ID >= seedN && m.ID-seedN < len(r.added[sh]):
			ms[j].ID = r.added[sh][m.ID-seedN]
		default:
			return fmt.Errorf("cluster: shard %d answered with local id %d outside the router's id map (shard mutated behind the router?): %w",
				sh, m.ID, ErrShardUnavailable)
		}
	}
	return nil
}

// globalizeAll translates every shard's gathered results.
func (r *Router) globalizeAll(per [][]bayeslsh.Match) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range per {
		if err := r.globalizeLocked(i, per[i]); err != nil {
			return err
		}
	}
	return nil
}

// Query is QueryContext with context.Background().
func (r *Router) Query(q bayeslsh.Vec, opts bayeslsh.QueryOptions) ([]bayeslsh.Match, error) {
	return r.QueryContext(context.Background(), q, opts)
}

// QueryContext scatters one threshold query to every shard and
// gathers the union, in ascending global-id order — bit-identical to
// a single-node LiveIndex over the same corpus (the equivalence
// matrix in router_test.go is the proof). All-or-nothing under
// failure and cancellation; see scatter.
func (r *Router) QueryContext(ctx context.Context, q bayeslsh.Vec, opts bayeslsh.QueryOptions) ([]bayeslsh.Match, error) {
	if err := r.queryThreshold(opts); err != nil {
		return nil, err
	}
	if q.Len() == 0 {
		return nil, nil
	}
	per := make([][]bayeslsh.Match, len(r.backends))
	err := r.scatter(ctx, func(cctx context.Context, i int) error {
		ms, err := r.backends[i].QueryContext(cctx, q, opts)
		if err != nil {
			return err
		}
		per[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := r.globalizeAll(per); err != nil {
		return nil, err
	}
	return mergeByID(per), nil
}

// TopK is TopKContext with context.Background().
func (r *Router) TopK(q bayeslsh.Vec, k int) ([]bayeslsh.Match, error) {
	return r.TopKContext(context.Background(), q, k)
}

// TopKContext scatters a top-k query — every shard answers its own
// best k, whose union provably contains the global best k — and
// k-way heap-merges the per-shard lists under the TopK order
// (similarity descending, global id ascending), truncated to k.
func (r *Router) TopKContext(ctx context.Context, q bayeslsh.Vec, k int) ([]bayeslsh.Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w (got %d)", bayeslsh.ErrBadK, k)
	}
	if q.Len() == 0 {
		return nil, nil
	}
	per := make([][]bayeslsh.Match, len(r.backends))
	err := r.scatter(ctx, func(cctx context.Context, i int) error {
		ms, err := r.backends[i].TopKContext(cctx, q, k)
		if err != nil {
			return err
		}
		per[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := r.globalizeAll(per); err != nil {
		return nil, err
	}
	return mergeTopK(per, k), nil
}

// QueryBatch is QueryBatchContext with context.Background().
func (r *Router) QueryBatch(queries []bayeslsh.Vec, opts bayeslsh.QueryOptions) ([][]bayeslsh.Match, error) {
	return r.QueryBatchContext(context.Background(), queries, opts)
}

// QueryBatchContext scatters the whole batch to every shard (each
// shard answers all queries over its slice) and merges per query.
// Result i corresponds to queries[i]; empty queries answer nil
// without touching the wire, matching the single-node contract — and
// keeping HTTP backends, whose wire grammar has no empty-vector form,
// out of the loop for them.
func (r *Router) QueryBatchContext(ctx context.Context, queries []bayeslsh.Vec, opts bayeslsh.QueryOptions) ([][]bayeslsh.Match, error) {
	if err := r.queryThreshold(opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	out := make([][]bayeslsh.Match, len(queries))
	idx := make([]int, 0, len(queries))
	for i, q := range queries {
		if q.Len() > 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return out, nil
	}
	sub := make([]bayeslsh.Vec, len(idx))
	for j, i := range idx {
		sub[j] = queries[i]
	}
	per := make([][][]bayeslsh.Match, len(r.backends))
	err := r.scatter(ctx, func(cctx context.Context, i int) error {
		res, err := r.backends[i].QueryBatchContext(cctx, sub, opts)
		if err != nil {
			return err
		}
		if len(res) != len(sub) {
			return fmt.Errorf("cluster: shard %d answered %d of %d batch queries: %w",
				i, len(res), len(sub), ErrShardUnavailable)
		}
		per[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	for i := range per {
		for _, ms := range per[i] {
			if gerr := r.globalizeLocked(i, ms); gerr != nil {
				r.mu.RUnlock()
				return nil, gerr
			}
		}
	}
	r.mu.RUnlock()
	lists := make([][]bayeslsh.Match, len(r.backends))
	for j, i := range idx {
		for s := range per {
			lists[s] = per[s][j]
		}
		out[i] = mergeByID(lists)
	}
	return out, nil
}

// Add ingests a vector, returning its permanent global id. Ids are
// assigned by the router in one dense sequence — the id a single-node
// index would assign for the same mutation history — and vectors are
// placed round-robin, so placement is deterministic too. The same
// validation errors as LiveIndex.Add (feature space, normalization)
// surface unchanged, consuming no id.
func (r *Router) Add(q bayeslsh.Vec) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, bayeslsh.ErrLiveClosed
	}
	s := r.rr % len(r.backends)
	local, err := r.backends[s].Add(q)
	if err != nil {
		return 0, err
	}
	rg := r.plan.Ranges[s]
	if want := (rg.Hi - rg.Lo) + len(r.added[s]); local != want {
		return 0, fmt.Errorf("cluster: shard %d assigned local id %d, router expected %d (shard mutated behind the router?): %w",
			s, local, want, ErrShardUnavailable)
	}
	gid := r.next
	r.next++
	r.rr++
	r.added[s] = append(r.added[s], gid)
	r.loc[gid] = shardLoc{shard: s, local: local}
	return gid, nil
}

// Delete tombstones the vector with the given global id on whichever
// shard holds it, reporting whether it was live — false for ids never
// issued or already deleted, matching LiveIndex.Delete.
func (r *Router) Delete(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	s, local, ok := r.locate(id)
	if !ok {
		return false
	}
	return r.backends[s].Delete(local)
}

// locate resolves a global id to (shard, local id): binary search
// over the contiguous seed ranges, map lookup for post-seed adds.
// Caller holds mu.
func (r *Router) locate(gid int) (sh, local int, ok bool) {
	if gid < 0 || gid >= r.next {
		return 0, 0, false
	}
	if seedN := r.plan.Ranges[len(r.plan.Ranges)-1].Hi; gid < seedN {
		lo, hi := 0, len(r.plan.Ranges)
		for lo < hi {
			mid := (lo + hi) / 2
			if r.plan.Ranges[mid].Hi <= gid {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo, gid - r.plan.Ranges[lo].Lo, true
	}
	l, ok := r.loc[gid]
	return l.shard, l.local, ok
}

// Compact folds every shard's delta and tombstones into fresh bases,
// shards compacting concurrently, and waits for all of them. The
// first failing shard's error is returned; a failed shard keeps
// serving its previous generation, like LiveIndex.Compact.
func (r *Router) Compact() error {
	bs := r.backends
	errs := make([]error, len(bs))
	_ = shard.RunCtx(context.Background(), len(bs), r.workers(), 1, func(lo, hi, _ int) { // Background never errs
		for i := lo; i < hi; i++ {
			errs[i] = bs[i].Compact()
		}
	})
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("cluster: compact shard %d: %w", i, e)
		}
	}
	return nil
}

// Close closes every shard backend. Mutations after Close return
// ErrLiveClosed; queries keep serving, the LiveIndex contract applied
// cluster-wide. Idempotent.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, b := range r.backends {
		b.Close()
	}
}
