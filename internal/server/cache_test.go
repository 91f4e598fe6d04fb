package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"bayeslsh"
	"bayeslsh/internal/harness"
)

// The result-cache serving tests: Config.CacheSize fronts the index
// with internal/rescache, and everything the wire can see — response
// bytes, /v1/stats, /metrics — must behave as if the cache were not
// there, except faster and with counters. Cache-internal semantics
// (LRU, generations, races) are proven in the rescache package; this
// file proves the HTTP wiring: byte-identical hits, invalidation on
// every mutating route including the /v1/load hot swap, and the
// counter surfaces.

// rawPost posts body and returns the full response body bytes.
func rawPost(tb testing.TB, url, body string) []byte {
	tb.Helper()
	resp := postJSON(tb, url, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("POST %s status %d: %s", url, resp.StatusCode, b)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fetchStats decodes GET /v1/stats.
func fetchStats(tb testing.TB, base string) statsResponse {
	tb.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	return st
}

// fetchMetrics returns the /metrics exposition text.
func fetchMetrics(tb testing.TB, base string) string {
	tb.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// TestServedCacheHitByteIdentical proves the serving-layer cache
// contract on the wire: repeating a /v1/query or /v1/topk request
// returns byte-for-byte the same NDJSON the miss produced, and both
// equal the direct LiveIndex answer. Counters surface in /v1/stats
// and /metrics.
func TestServedCacheHitByteIdentical(t *testing.T) {
	ds, maps := corpus(t, bayeslsh.Cosine, 60)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSHBayesLSH, 0.6)
	defer li.Close()
	ts := httptest.NewServer(New(li, Config{CacheSize: 64}).Handler())
	defer ts.Close()

	for i, mv := range maps[:5] {
		qs := vecString(mv)
		qbody, _ := json.Marshal(queryRequest{Vec: qs, Threshold: 0})
		miss := rawPost(t, ts.URL+"/v1/query", string(qbody))
		hit := rawPost(t, ts.URL+"/v1/query", string(qbody))
		if string(miss) != string(hit) {
			t.Fatalf("query %d: cache hit bytes != miss bytes:\n miss %s\n hit  %s", i, miss, hit)
		}
		direct, err := li.Query(mustVec(t, qs), bayeslsh.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := servedQuery(t, ts.URL, qs, 0); !matchesEqual(got, direct) {
			t.Fatalf("query %d: cached response != direct:\n got %v\nwant %v", i, got, direct)
		}

		kbody, _ := json.Marshal(topkRequest{Vec: qs, K: 4})
		missK := rawPost(t, ts.URL+"/v1/topk", string(kbody))
		hitK := rawPost(t, ts.URL+"/v1/topk", string(kbody))
		if string(missK) != string(hitK) {
			t.Fatalf("topk %d: cache hit bytes != miss bytes", i)
		}
	}

	st := fetchStats(t, ts.URL)
	if st.Cache == nil {
		t.Fatal("/v1/stats has no cache block with CacheSize set")
	}
	if st.Cache.Size != 64 {
		t.Fatalf("cache size = %d, want 64", st.Cache.Size)
	}
	// 5 queries x (1 miss + 2 hits) + 5 topk x (1 miss + 1 hit).
	if st.Cache.Misses != 10 || st.Cache.Hits != 15 {
		t.Fatalf("cache hits/misses = %d/%d, want 15/10", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.Entries != 10 {
		t.Fatalf("cache entries = %d, want 10", st.Cache.Entries)
	}
	if st.CorpusStats == nil || st.CorpusStats.Vectors != 60 {
		t.Fatalf("corpus_stats missing or wrong through the cache: %+v", st.CorpusStats)
	}

	mtx := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		"apss_cache_hits_total 15",
		"apss_cache_misses_total 10",
		"apss_cache_evictions_total 0",
		"apss_cache_invalidations_total 0",
		"apss_cache_entries 10",
	} {
		if !strings.Contains(mtx, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mtx)
		}
	}
}

// TestServedCacheInvalidation drives every mutating route — /v1/add,
// /v1/delete, /v1/compact, and the /v1/load hot swap — and proves
// each one invalidates: the next response reflects the mutation
// rather than the cached pre-mutation answer.
func TestServedCacheInvalidation(t *testing.T) {
	ds, maps := corpus(t, bayeslsh.Cosine, 40)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	srv := New(li, Config{CacheSize: 32, Loader: func(path string) (Serveable, error) {
		return bayeslsh.OpenLiveFile(path, harness.LiveConfig())
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.index().Close()

	qs := vecString(maps[0])
	invalidations := func() int64 {
		st := fetchStats(t, ts.URL)
		if st.Cache == nil {
			t.Fatal("cache block missing")
		}
		var n int64
		fmt.Sscanf(metricsLine(t, ts.URL, "apss_cache_invalidations_total"), "%d", &n)
		return n
	}

	// Prime the cache, then add a near-duplicate of the query vector:
	// the post-add answer must include the new id, proving the primed
	// entry did not survive.
	before := servedQuery(t, ts.URL, qs, 0)
	newID := servedAdd(t, ts.URL, qs)
	after := servedQuery(t, ts.URL, qs, 0)
	if matchesEqual(before, after) {
		t.Fatalf("post-add answer identical to cached pre-add answer: %v", after)
	}
	found := false
	for _, m := range after {
		found = found || m.ID == newID
	}
	if !found {
		t.Fatalf("post-add answer %v missing new id %d", after, newID)
	}
	if n := invalidations(); n != 1 {
		t.Fatalf("invalidations after add = %d, want 1", n)
	}

	// Delete the added vector: the cached post-add answer must go too.
	if !servedDelete(t, ts.URL, newID) {
		t.Fatalf("delete(%d) reported not deleted", newID)
	}
	got := servedQuery(t, ts.URL, qs, 0)
	if !matchesEqual(got, before) {
		t.Fatalf("post-delete answer != pre-add answer:\n got %v\nwant %v", got, before)
	}
	if n := invalidations(); n != 2 {
		t.Fatalf("invalidations after delete = %d, want 2", n)
	}
	// A no-op delete must not invalidate.
	if servedDelete(t, ts.URL, newID) {
		t.Fatal("second delete reported deleted")
	}
	if n := invalidations(); n != 2 {
		t.Fatalf("invalidations after no-op delete = %d, want 2", n)
	}

	// Compact invalidates wholesale.
	resp := postJSON(t, ts.URL+"/v1/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if n := invalidations(); n != 3 {
		t.Fatalf("invalidations after compact = %d, want 3", n)
	}

	// The /v1/load hot swap goes through the cache: the swapped-in
	// corpus answers afterward, and the retired one is closed.
	donor := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	if _, err := donor.Add(mustVec(t, qs)); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "grown.snap")
	if err := donor.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	donor.Close()

	servedQuery(t, ts.URL, qs, 0) // re-prime against the old corpus
	resp = postJSON(t, ts.URL+"/v1/load", fmt.Sprintf(`{"path":%q}`, snap))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("load status %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()
	if n := invalidations(); n != 4 {
		t.Fatalf("invalidations after load = %d, want 4", n)
	}
	if st := fetchStats(t, ts.URL); st.Live != 41 {
		t.Fatalf("post-load live = %d, want 41 (swap not visible through cache)", st.Live)
	}
	postLoad := servedQuery(t, ts.URL, qs, 0)
	if matchesEqual(postLoad, before) {
		t.Fatalf("post-load answer identical to cached pre-load answer: %v", postLoad)
	}
	if _, err := li.Add(mustVec(t, qs)); err == nil {
		t.Fatal("retired index still accepts mutations after /v1/load swap")
	}
}

// metricsLine returns the value column of the first /metrics line
// starting with name.
func metricsLine(tb testing.TB, base, name string) string {
	tb.Helper()
	for _, line := range strings.Split(fetchMetrics(tb, base), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	tb.Fatalf("/metrics has no %s line", name)
	return ""
}
