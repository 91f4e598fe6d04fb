package main

// metricDef declares one metric the way BENCHMARK.json does. Bound is
// the share of the baseline median by which a later change may worsen
// the metric before it counts as a regression; per-layer metrics carry
// none. TestSpecMatchesBenchmarkJSON keeps this file and BENCHMARK.json
// in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload
// reports every one of them, so each is defined over the workload's
// timed operation ("op"): one cold Engine.Search on batch_cosine_lsh
// and batch_jaccard_ap, one four-threshold sweep on batch_cosine_sweep,
// one /v1/query round trip on the serve_* workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "recall", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "est_ok_frac", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer lists the per-layer metrics of the traced run, in the
// order of the layer table in README.md. A workload that bypasses a
// layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{Name: "sighash.fill_s", Unit: "s", Better: "lower"},
	{Name: "sighash.bits_filled", Unit: "count", Better: "lower"},
	{Name: "sighash.query_sig_us", Unit: "us", Better: "lower"},

	{Name: "minhash.fill_s", Unit: "s", Better: "lower"},
	{Name: "minhash.hashes_filled", Unit: "count", Better: "lower"},
	{Name: "minhash.query_sig_us", Unit: "us", Better: "lower"},

	{Name: "lshindex.candidates_s", Unit: "s", Better: "lower"},
	{Name: "lshindex.candidates", Unit: "count", Better: "lower"},
	{Name: "lshindex.tables", Unit: "count", Better: "lower"},
	{Name: "lshindex.build_s", Unit: "s", Better: "lower"},
	{Name: "lshindex.probe_us", Unit: "us", Better: "lower"},
	{Name: "lshindex.view_probe_us", Unit: "us", Better: "lower"},
	{Name: "lshindex.probe_ids", Unit: "count", Better: "lower"},

	{Name: "allpairs.candidates_s", Unit: "s", Better: "lower"},
	{Name: "allpairs.candidates", Unit: "count", Better: "lower"},
	{Name: "allpairs.build_s", Unit: "s", Better: "lower"},
	{Name: "allpairs.probe_us", Unit: "us", Better: "lower"},
	{Name: "allpairs.probe_ids", Unit: "count", Better: "lower"},

	{Name: "core.verify_s", Unit: "s", Better: "lower"},
	{Name: "core.verify_query_us", Unit: "us", Better: "lower"},
	{Name: "core.hashes_compared", Unit: "count", Better: "lower"},
	{Name: "core.hashes_per_cand", Unit: "count", Better: "lower"},
	{Name: "core.prune_ratio_r1", Unit: "fraction", Better: "higher"},
	{Name: "core.pruned", Unit: "count", Better: "higher"},
	{Name: "core.accepted", Unit: "count", Better: "higher"},
	{Name: "core.inference_calls", Unit: "count", Better: "lower"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher"},

	{Name: "exact.sim_s", Unit: "s", Better: "lower"},
	{Name: "exact.sim_calls", Unit: "count", Better: "lower"},
	{Name: "exact.useful_ratio", Unit: "fraction", Better: "higher"},

	{Name: "index.sort_s", Unit: "s", Better: "lower"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.query_us", Unit: "us", Better: "lower"},
	{Name: "index.query_allocs", Unit: "count", Better: "lower"},
	{Name: "index.query_bytes", Unit: "B", Better: "lower"},
	{Name: "index.matches_per_query", Unit: "count", Better: "higher"},

	{Name: "live.add_us", Unit: "us", Better: "lower"},
	{Name: "live.delete_us", Unit: "us", Better: "lower"},
	{Name: "live.query_us", Unit: "us", Better: "lower"},
	{Name: "live.merge_s", Unit: "s", Better: "lower"},
	{Name: "live.merges", Unit: "count", Better: "higher"},
	{Name: "live.delta_max", Unit: "count", Better: "lower"},
	{Name: "live.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.write_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "snapshot.save_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.open_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.load_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.file_mb", Unit: "MB", Better: "lower"},
	{Name: "snapshot.bytes_per_nnz", Unit: "B", Better: "lower"},
	{Name: "snapshot.first_touch_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.resident_mb", Unit: "MB", Better: "lower"},

	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.codec_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.refused", Unit: "count", Better: "lower"},
	{Name: "server.errors", Unit: "count", Better: "lower"},

	{Name: "cluster.router_query_us", Unit: "us", Better: "lower"},
	{Name: "cluster.scatter_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_skew", Unit: "ratio", Better: "lower"},

	{Name: "rescache.hit_us", Unit: "us", Better: "lower"},
	{Name: "rescache.miss_us", Unit: "us", Better: "lower"},
	{Name: "rescache.hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "rescache.invalidations", Unit: "count", Better: "lower"},
	{Name: "rescache.evictions", Unit: "count", Better: "lower"},

	{Name: "planner.collect_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.cpu_share", Unit: "fraction", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.query_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.e2e_1client_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "layers.sum_over_e2e", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// workloadDef names one workload and why it is in the set.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*result, error)
}

// workloads is filled in init to avoid an initialization cycle
// through the run functions.
var workloads []workloadDef

func init() {
	workloads = []workloadDef{
		{"batch_cosine_lsh", "cold all-pairs join on long text vectors: signature hashing dominates, Bayes pruning kills 99.7% of LSH candidates; allpairs, minhash and exact do nothing", runBatch},
		{"batch_jaccard_ap", "cold Jaccard join on a graph corpus: AllPairs candidate generation dominates, then minhash, Lite pruning and exact verify; sighash and lshindex do nothing", runBatch},
		{"batch_cosine_sweep", "threshold sweep 0.9..0.6 on cached signatures: hashing is amortized away, LSH banding dominates; a hashing speed-up predicts no change here", runBatch},
		{"serve_read", "apss serve over an mmap'd v3 snapshot, no cache, uniform reads, closed loop x 2 clients: HTTP, codec, index query; live delta, rescache and cluster are bypassed", runServe},
		{"serve_mixed", "heap LiveIndex with result cache: Zipf reads beside a paced add/delete writer, so delta probe, tombstones, merges and cache invalidation show in read latency", runServe},
		{"serve_sharded", "two in-process shards behind the scatter-gather router, no cache, same uniform reads: the slowest shard sets each latency; a router change moves only this one", runServe},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
