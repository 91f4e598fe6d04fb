package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bayeslsh"
	"bayeslsh/internal/cluster"
	"bayeslsh/internal/core"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/planner"
	"bayeslsh/internal/rescache"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/server"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/vector"
)

// queryLayers is the point-query path of a cosine LSH+BayesLSH index
// taken apart into the layers Index.Query calls: the query's bit
// signature (sighash), the band-table probe (lshindex) and the
// one-sided Bayes verification (core). It is built from the corpus the
// way Engine.BuildIndex builds it; every replayed query is compared
// with Index.Query's answer.
type queryLayers struct {
	store  *sighash.Store
	tables *lshindex.BitsTables
	view   *lshindex.BitsView // the same tables in their mmap'd (sorted-run) form
	verify *core.CosineVerifier
	depth  int // bits of query signature: the deeper of banding and verification
}

func buildQueryLayers(ctx context.Context, tr *tracer, corpus *vector.Collection) (*queryLayers, error) {
	ql := &queryLayers{store: sighash.NewStore(corpus, sighash.NewBlockFamily(corpus.Dim, cosSigBits, cosBlockBits, rng.Derive(engineSeed, 1)))}
	l := min(lshindex.NumTables(sighash.CosineToR(serveThreshold), cosBandK, optEpsilon), ql.store.MaxBits()/cosBandK)

	s := tr.begin(0, 0, "sighash", "fill")
	err := ql.store.EnsureAllCtx(ctx, cosBandK*l, workers)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(0, 0, "lshindex", "build")
	ql.tables, err = lshindex.BuildBits(ql.store.Sigs(), cosBandK, l, workers, false)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	ql.tables.WriteFixedSection(w)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("render band tables: %w", err)
	}
	if ql.view, err = lshindex.OpenBitsView(buf.Bytes(), len(corpus.Vecs)); err != nil {
		return nil, fmt.Errorf("open band-table view: %w", err)
	}
	ql.verify, err = core.NewCosine(ql.store.Sigs(), ql.store.MaxBits(), core.Params{
		Threshold: serveThreshold, Epsilon: optEpsilon, Delta: delta, Gamma: gamma, K: optK,
		MaxHashes: min(cosMaxHashes, ql.store.MaxBits()), Ensure: ql.store.Ensure,
	})
	if err != nil {
		return nil, err
	}
	ql.depth = max(cosBandK*l, ql.verify.Params().MaxHashes)
	return ql, nil
}

// query replays one point query as request req.
func (ql *queryLayers) query(tr *tracer, req int, q vector.Vector) ([]pair.Hit, core.Stats, int) {
	root := tr.begin(0, req, "bench", "query")
	work := q.Clone().Normalize()

	s := tr.begin(root, req, "sighash", "query_sig")
	sig := ql.store.Family().SignatureN(work, ql.depth)
	tr.end(s)

	s = tr.begin(root, req, "lshindex", "probe")
	ids := ql.tables.Probe(sig)
	tr.end(s)

	s = tr.begin(root, req, "lshindex", "view_probe")
	ql.view.Probe(sig)
	tr.end(s)

	s = tr.begin(root, req, "core", "verify_query")
	hashed := ql.store.Elapsed()
	hits, st := ql.verify.VerifyQuery(core.QuerySig{Bits: sig}, ids)
	tr.end(s)
	// Candidates' signatures deepen on first comparison; once every
	// query has been seen this is zero.
	tr.derived(s, req, "sighash", "fill", ql.store.Elapsed()-hashed)
	tr.end(root)
	return hits, st, len(ids)
}

// spanCostUS measures what recording one span costs, in microseconds.
func spanCostUS() float64 {
	const n = 10000
	tr := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin(0, i, "bench", "noop"))
	}
	return us(time.Since(start)) / n
}

// medianSelfUS is the median over requests of a span key's self time,
// in microseconds (requests without the key count as 0).
func medianSelfUS(perReq []map[string]time.Duration, key string) float64 {
	xs := make([]float64, 0, len(perReq))
	for _, m := range perReq[1:] { // request 0 is the build
		xs = append(xs, us(m[key]))
	}
	return median(xs)
}

// timeEach runs f once per query and returns the per-call times in
// microseconds.
func timeEach(queries []query, f func(i int, q query) error) ([]float64, error) {
	out := make([]float64, len(queries))
	for i, q := range queries {
		start := time.Now()
		if err := f(i, q); err != nil {
			return nil, err
		}
		out[i] = us(time.Since(start))
	}
	return out, nil
}

// handlerTimes posts every query to the server's handler in process —
// a recorder instead of a socket, so no TCP and no HTTP framing — and
// returns per-request microseconds and the mean response size.
func handlerTimes(ctx context.Context, h http.Handler, queries []query) ([]float64, float64, error) {
	var bytesOut int
	times, err := timeEach(queries, func(i int, q query) error {
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/query", bytes.NewReader(q.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !complete(rec.Body.Bytes()) {
			return fmt.Errorf("in-process handler, query %d: status %d: %s", i, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		bytesOut += rec.Body.Len()
		return nil
	})
	return times, float64(bytesOut) / float64(len(queries)), err
}

func traceServe(rc *runCtx, spec serveSpec, in *serveInputs, corpusPath string) (*result, error) {
	res := newResult(perLayer)
	tr := newTracer()
	start := time.Now()
	cs := planner.Collect(in.corpus)
	res.set("planner.collect_ms", ms(time.Since(start)))

	var served server.Serveable
	switch {
	case spec.snapshot:
		li, err := traceReadLayers(rc, tr, res, in, float64(cs.Nnz))
		if err != nil {
			return nil, err
		}
		defer li.Close()
		served = li
	case spec.shards > 1:
		router, err := traceCluster(rc, tr, res, in, spec.shards)
		if err != nil {
			return nil, err
		}
		defer router.Close()
		served = router
	default:
		li, err := traceLive(rc, tr, res, in, spec.cache)
		if err != nil {
			return nil, err
		}
		defer li.Close()
		served = li
	}

	// The server layer in process: the handler's time against the time
	// of the one call it makes into the index, back to back on the same
	// warm object. The difference is the server's own work (request
	// decode, NDJSON encode, middleware).
	inner, err := timeEach(in.queries, func(_ int, q query) error {
		_, err := served.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	h := server.New(served, server.Config{CacheSize: spec.cache}).Handler()
	handler, respBytes, err := handlerTimes(rc.ctx, h, in.queries)
	if err != nil {
		return nil, err
	}
	res.set("server.handler_us", median(handler))
	res.set("server.resp_bytes", respBytes)
	res.set("server.codec_us", median(handler)-median(inner))
	res.note("server.handler_us", "median of %d in-process requests", len(handler))
	res.Attempted += 2 * len(in.queries)
	// What the one-client round trip below is compared with: the same
	// requests again, which a configured result cache now answers, as it
	// does for the lone client (no writer is invalidating yet).
	if spec.cache > 0 {
		if handler, _, err = handlerTimes(rc.ctx, h, in.queries); err != nil {
			return nil, err
		}
	}

	soloMS, err := traceExternal(rc, spec, in, corpusPath, res)
	if err != nil {
		return nil, err
	}
	e2e := soloMS * 1000
	res.set("server.http_overhead_us", e2e-median(handler))
	res.set("layers.sum_over_e2e", median(handler)/e2e)
	res.note("layers.sum_over_e2e", "in-process handler %.0fus / one-client round trip %.0fus; the rest is net/http, TCP and the client", median(handler), e2e)
	if !spec.snapshot {
		// Only serve_read ran an untraced twin of its spans. Elsewhere,
		// charge each request the measured cost of the spans it records.
		perReq := float64(len(tr.spans)) / float64(len(in.queries))
		res.set("trace.overhead_frac", perReq*spanCostUS()/median(inner))
	}

	return res, rc.saveTrace(tr)
}

// traceReadLayers covers what serve_read exercises below the server:
// the index query split into its layers, the snapshot codecs, and the
// mmap'd index the daemon serves from. It returns that live index.
func traceReadLayers(rc *runCtx, tr *tracer, res *result, in *serveInputs, nnz float64) (*bayeslsh.LiveIndex, error) {
	start := time.Now()
	ix, err := bayeslsh.NewIndex(in.ds, bayeslsh.Cosine, engineCfg, serveOpts)
	if err != nil {
		return nil, fmt.Errorf("in-process index: %w", err)
	}
	res.set("index.build_s", time.Since(start).Seconds())

	// index: single-goroutine Index.Query with allocation accounting.
	want := make([][]bayeslsh.Match, len(in.queries))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	times, err := timeEach(in.queries, func(i int, q query) (err error) {
		want[i], err = ix.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(in.queries))
	matches := 0
	for _, m := range want {
		matches += len(m)
	}
	// The first pass also deepened corpus signatures; time a warm one.
	if times, err = timeEach(in.queries, func(_ int, q query) error {
		_, err := ix.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	res.set("index.query_us", median(times))
	res.set("index.query_allocs", float64(after.Mallocs-before.Mallocs)/n)
	res.set("index.query_bytes", float64(after.TotalAlloc-before.TotalAlloc)/n)
	res.set("index.matches_per_query", float64(matches)/n)

	// The same query path, layer by layer: once untraced (for the
	// tracing overhead), once traced.
	ql, err := buildQueryLayers(rc.ctx, tr, in.corpus)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	for _, q := range in.queries { // deepen candidates' signatures first, as above
		ql.query(nil, 0, q.vec)
	}
	plain, _ := timeEach(in.queries, func(_ int, q query) error { ql.query(nil, 0, q.vec); return nil })
	var (
		total    core.Stats
		probeIDs int
	)
	traced, _ := timeEach(in.queries, func(i int, q query) error {
		hits, st, ids := ql.query(tr, i+1, q.vec)
		probeIDs += ids
		addCoreStats(&total, st)
		if len(hits) != len(want[i]) {
			res.Failed++
			res.fail("query %d: layer replay found %d matches, Index.Query %d: the replay no longer mirrors the index", i, len(hits), len(want[i]))
		}
		for j := range min(len(hits), len(want[i])) {
			if int(hits[j].ID) != want[i][j].ID || hits[j].Sim != want[i][j].Sim {
				res.Failed++
				res.fail("query %d: layer replay and Index.Query disagree on match %d", i, j)
				break
			}
		}
		return nil
	})
	res.Attempted += len(in.queries)
	perReq := selfByReq(tr.spans)
	build := perReq[0]
	res.set("sighash.fill_s", build["sighash.fill"].Seconds())
	res.set("lshindex.build_s", build["lshindex.build"].Seconds())
	res.set("lshindex.tables", float64(ql.tables.Bands()))
	res.set("sighash.query_sig_us", medianSelfUS(perReq, "sighash.query_sig"))
	res.set("lshindex.probe_us", medianSelfUS(perReq, "lshindex.probe"))
	res.set("lshindex.view_probe_us", medianSelfUS(perReq, "lshindex.view_probe"))
	res.set("lshindex.probe_ids", float64(probeIDs)/n)
	res.set("core.verify_query_us", medianSelfUS(perReq, "core.verify_query"))
	setCoreCounts(res, total)
	bits := 0.0
	for id := range in.corpus.Vecs {
		bits += float64(ql.store.FilledBits(int32(id)))
	}
	res.set("sighash.bits_filled", bits)
	res.set("trace.overhead_frac", median(traced)/median(plain)-1)
	layers := medianSelfUS(perReq, "sighash.query_sig") + medianSelfUS(perReq, "lshindex.probe") + medianSelfUS(perReq, "core.verify_query")
	res.note("index.query_us", "its layers (signature+probe+verify) sum to %.0fus", layers)

	// snapshot: both codecs, then the mapped index the daemon serves.
	v3 := filepath.Join(rc.workDir, "trace.v3.snap")
	v1 := filepath.Join(rc.workDir, "trace.v1.snap")
	start = time.Now()
	if err := ix.SaveFileV3(v3); err != nil {
		return nil, fmt.Errorf("SaveFileV3: %w", err)
	}
	res.set("snapshot.save_s", time.Since(start).Seconds())
	fi, err := os.Stat(v3)
	if err != nil {
		return nil, fmt.Errorf("stat snapshot: %w", err)
	}
	res.set("snapshot.file_mb", float64(fi.Size())/(1<<20))
	res.set("snapshot.bytes_per_nnz", float64(fi.Size())/nnz)
	if err := ix.SaveFile(v1); err != nil {
		return nil, fmt.Errorf("SaveFile: %w", err)
	}
	start = time.Now()
	heap, err := bayeslsh.LoadFile(v1)
	if err != nil {
		return nil, fmt.Errorf("LoadFile: %w", err)
	}
	res.set("snapshot.load_ms", ms(time.Since(start)))
	_ = heap // loaded only to time the v1 decoder
	start = time.Now()
	li, err := bayeslsh.OpenLiveFile(v3, bayeslsh.LiveConfig{})
	if err != nil {
		return nil, fmt.Errorf("OpenLiveFile: %w", err)
	}
	res.set("snapshot.open_ms", ms(time.Since(start)))
	first := in.queries[0]
	start = time.Now()
	if _, err := li.QueryContext(rc.ctx, first.q, bayeslsh.QueryOptions{}); err != nil {
		li.Close()
		return nil, err
	}
	cold := time.Since(start)
	start = time.Now()
	if _, err := li.QueryContext(rc.ctx, first.q, bayeslsh.QueryOptions{}); err != nil {
		li.Close()
		return nil, err
	}
	res.set("snapshot.first_touch_ms", ms(cold-time.Since(start)))
	for _, q := range in.queries { // touch what serving touches, then ask what is resident
		if _, err := li.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{}); err != nil {
			li.Close()
			return nil, err
		}
	}
	res.set("snapshot.resident_mb", float64(li.MemStats().ResidentBytes)/(1<<20))
	return li, nil
}

// traceCluster covers the router: scatter, gather and merge on top of
// per-shard queries, against the slowest shard queried directly.
func traceCluster(rc *runCtx, tr *tracer, res *result, in *serveInputs, shards int) (*cluster.Router, error) {
	router, err := cluster.NewLocal(in.ds, bayeslsh.Cosine, engineCfg, serveOpts, bayeslsh.LiveConfig{}, shards, cluster.Config{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("in-process router: %w", err)
	}
	parts, _, err := cluster.Partition(in.ds, shards, engineSeed)
	if err != nil {
		router.Close()
		return nil, err
	}
	ixs := make([]*bayeslsh.Index, len(parts))
	for i, p := range parts {
		if ixs[i], err = bayeslsh.NewIndex(p, bayeslsh.Cosine, engineCfg, serveOpts); err != nil {
			router.Close()
			return nil, fmt.Errorf("shard %d index: %w", i, err)
		}
	}
	var routed, slowest, skew []float64
	for pass := 0; pass < 2; pass++ { // the first pass deepens signatures; keep the second
		routed, slowest, skew = routed[:0], slowest[:0], skew[:0]
		for i, q := range in.queries {
			root := tr.begin(0, i+1, "cluster", "router_query")
			start := time.Now()
			if _, err := router.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{}); err != nil {
				router.Close()
				return nil, err
			}
			routed = append(routed, us(time.Since(start)))
			tr.end(root)
			worst, sum := 0.0, 0.0
			for s, ix := range ixs {
				sp := tr.begin(0, i+1, "index", "shard_query_"+strconv.Itoa(s))
				start = time.Now()
				if _, err := ix.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{}); err != nil {
					router.Close()
					return nil, err
				}
				d := us(time.Since(start))
				tr.end(sp)
				worst, sum = max(worst, d), sum+d
			}
			slowest = append(slowest, worst)
			skew = append(skew, worst/(sum/float64(len(ixs))))
		}
		if pass == 0 {
			tr.spans = tr.spans[:0]
		}
	}
	res.Attempted += len(in.queries)
	res.set("cluster.router_query_us", median(routed))
	res.set("cluster.scatter_overhead_us", median(routed)-median(slowest))
	res.set("cluster.shard_skew", median(skew))
	res.set("index.query_us", median(slowest))
	res.note("index.query_us", "the slower of %d shards, queried directly", len(ixs))
	return router, nil
}

// traceLive covers the live index and the result cache in process: the
// cost of a write, of a query while the delta segment is populated, and
// of a cache hit against a miss.
func traceLive(rc *runCtx, tr *tracer, res *result, in *serveInputs, cacheSize int) (*bayeslsh.LiveIndex, error) {
	// Merging is off here so the delta stays populated while it is timed.
	li, err := bayeslsh.NewLiveIndex(in.ds, bayeslsh.Cosine, engineCfg, serveOpts, bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		return nil, fmt.Errorf("in-process live index: %w", err)
	}
	const adds, deletes = 600, 200
	var addT, delT []float64
	for i, q := range in.adds[:adds] {
		s := tr.begin(0, i+1, "live", "add")
		start := time.Now()
		if _, err := li.Add(q.q); err != nil {
			li.Close()
			return nil, fmt.Errorf("LiveIndex.Add: %w", err)
		}
		addT = append(addT, us(time.Since(start)))
		tr.end(s)
	}
	for id := 0; id < deletes; id++ {
		s := tr.begin(0, adds+id+1, "live", "delete")
		start := time.Now()
		li.Delete(id * 7)
		delT = append(delT, us(time.Since(start)))
		tr.end(s)
	}
	var queryT []float64
	for pass := 0; pass < 2; pass++ { // warm, then timed
		if queryT, err = timeEach(in.queries, func(_ int, q query) error {
			_, err := li.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{})
			return err
		}); err != nil {
			li.Close()
			return nil, err
		}
	}
	res.set("live.add_us", median(addT))
	res.set("live.delete_us", median(delT))
	res.set("live.query_us", median(queryT))
	res.note("live.query_us", "delta holds %d vectors, %d tombstones", adds, deletes)

	// rescache: every distinct query once (misses), then again (hits).
	// The cache is not Closed: that would close li, which the caller
	// goes on to serve.
	cache := rescache.New(li, max(cacheSize, len(in.queries)))
	var missT, hitT []float64
	for pass := 0; pass < 2; pass++ {
		ts, err := timeEach(in.queries, func(_ int, q query) error {
			_, err := cache.QueryContext(rc.ctx, q.q, bayeslsh.QueryOptions{})
			return err
		})
		if err != nil {
			li.Close()
			return nil, err
		}
		if pass == 0 {
			missT = ts
		} else {
			hitT = ts
		}
	}
	res.set("rescache.miss_us", median(missT))
	res.set("rescache.hit_us", median(hitT))
	// The second pass must hit throughout. (The first may hit too: a
	// planted cluster can hold two identical vectors.)
	if ct := cache.Counters(); int(ct.Hits) < len(in.queries) || int(ct.Hits+ct.Misses) != 2*len(in.queries) {
		res.fail("rescache: %d hits and %d misses over two passes of %d queries", ct.Hits, ct.Misses, len(in.queries))
	}
	res.Attempted += adds + deletes + 3*len(in.queries)
	return li, nil
}

var metricLine = regexp.MustCompile(`(?m)^(apss_[a-z_]+)(\{[^}]*\})? ([0-9.eE+-]+)$`)

// scrape reads /metrics into name{labels} → value.
func scrape(ctx context.Context, c *conn) (map[string]float64, error) {
	body, status, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d, err %v", status, err)
	}
	out := make(map[string]float64)
	for _, m := range metricLine.FindAllSubmatch(body, -1) {
		v, err := strconv.ParseFloat(string(m[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", m[0], err)
		}
		out[string(m[1])+string(m[2])] = v
	}
	return out, nil
}

// traceExternal reads what only the running daemon can tell: the
// one-client round trip (for the HTTP overhead), the generator's CPU
// share and lateness, an open-loop phase, and the daemon's own
// counters from /metrics and /v1/stats. It returns the lone reader's
// median round trip in milliseconds.
func traceExternal(rc *runCtx, spec serveSpec, in *serveInputs, corpusPath string, res *result) (float64, error) {
	run, _, err := serveSetup(rc, spec, in, corpusPath)
	if err != nil {
		return 0, err
	}
	defer run.proc.stop()
	pid := run.proc.cmd.Process.Pid
	phase := rc.seconds / 4

	// One reader alone.
	solo := drive(rc, spec, in, run, 1, nil, phase)
	soloMS := median(durationsMS(solo.reads()))
	res.set("loadgen.e2e_1client_p50_ms", soloMS)

	// The workload's own mix, with both processes' CPU time around it.
	var ops []writeOp
	readers := clients
	if spec.writer {
		ops = writeSchedule(rc.seed, len(in.corpus.Vecs), len(in.adds))
		readers--
	}
	scraper := newConn(run.proc.base)
	defer scraper.close()
	before, err := scrape(rc.ctx, scraper) // cache counters so far: the warm pass and the lone reader
	if err != nil {
		return 0, err
	}
	selfBefore, err1 := procCPU(0)
	srvBefore, err2 := procCPU(pid)
	var (
		deltaMax int
		pollWG   sync.WaitGroup
	)
	pollCtx, stopPoll := context.WithCancel(rc.ctx)
	if spec.writer {
		pollWG.Add(1)
		//apsslint:allow gohygiene one poller for the length of the phase; stopPoll and pollWG.Wait below end and join it
		go func() { // LiveStats, ten times a second
			defer pollWG.Done()
			c := newConn(run.proc.base)
			defer c.close()
			for pollCtx.Err() == nil {
				if body, status, err := c.do(pollCtx, http.MethodGet, "/v1/stats", nil); err == nil && status == http.StatusOK {
					var st struct {
						Delta int `json:"delta"`
					}
					if json.Unmarshal(body, &st) == nil {
						deltaMax = max(deltaMax, st.Delta)
					}
				}
				select {
				case <-pollCtx.Done():
				case <-time.After(100 * time.Millisecond):
				}
			}
		}()
	}
	mix := drive(rc, spec, in, run, readers, ops, 2*phase)
	stopPoll()
	pollWG.Wait()
	selfAfter, err3 := procCPU(0)
	srvAfter, err4 := procCPU(pid)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return 0, err
	}
	if total := (selfAfter - selfBefore) + (srvAfter - srvBefore); total > 0 {
		res.set("loadgen.cpu_share", (selfAfter-selfBefore)/total)
	}
	reads := durationsMS(mix.reads())
	res.set("loadgen.samples", float64(len(reads)+len(mix.writer.lat)))
	res.set("loadgen.query_p999_ms", percentile(reads, 99.9))
	res.note("loadgen.query_p999_ms", "%d queries support p%g", len(reads), supportedTail(len(reads)))
	if spec.writer {
		writes := durationsMS(mix.writer.lat)
		res.set("live.write_p50_ms", median(writes))
		res.set("live.write_p99_ms", percentile(writes, 99))
		res.set("loadgen.late_p99_ms", percentile(durationsMS(mix.writer.late), 99))
		res.set("live.delta_max", float64(deltaMax))
		res.note("live.write_p50_ms", "%d writes at %d/s, timed from their due time", len(writes), writeRate)
	}

	// Open loop, ungated: arrivals on a schedule, as independent users
	// would send them. Its tail does not repeat in this sandbox.
	if !spec.writer {
		const openRate = 400
		open := openLoop(rc.ctx, run.proc.base, in, newQueryOrder(rc.seed, clients, len(in.queries), spec.zipf), openRate, phase)
		lat := durationsMS(open.lat)
		res.set("loadgen.open_p50_ms", median(lat))
		res.set("loadgen.open_p99_ms", percentile(lat, 99))
		res.set("loadgen.late_p99_ms", percentile(durationsMS(open.late), 99))
		res.note("loadgen.open_p99_ms", "%d arrivals at %d/s", len(lat), openRate)
		mix.readers = append(mix.readers, open)
	}
	res.tally(append(append(solo.readers, mix.readers...), mix.writer)...)

	// The daemon's own counters.
	met, err := scrape(rc.ctx, scraper)
	if err != nil {
		return 0, err
	}
	for name, v := range met {
		switch {
		case strings.Contains(name, `class="4xx"`):
			res.set("server.refused", res.Metrics["server.refused"].Value+v)
		case strings.Contains(name, `class="5xx"`), name == "apss_handler_panics_total":
			res.set("server.errors", res.Metrics["server.errors"].Value+v)
		}
	}
	res.set("live.merges", met["apss_live_merges_total"])
	res.set("live.merge_s", met["apss_live_last_merge_seconds"])
	res.set("rescache.invalidations", met["apss_cache_invalidations_total"])
	res.set("rescache.evictions", met["apss_cache_evictions_total"])
	hits := met["apss_cache_hits_total"] - before["apss_cache_hits_total"]
	if lookups := hits + met["apss_cache_misses_total"] - before["apss_cache_misses_total"]; lookups > 0 {
		res.set("rescache.hit_ratio", hits/lookups)
		res.note("rescache.hit_ratio", "%.0f lookups beside the writer", lookups)
	}
	if err := run.proc.stop(); err != nil {
		res.fail("apss serve did not drain cleanly: %v\n%s", err, run.proc.stderr)
	}
	return soloMS, nil
}
