package server

import (
	"bufio"
	"encoding/json"
	"errors"
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

// The end-to-end harness: every route driven over real HTTP, with the
// served bytes decoded back and compared — float64-exact — against
// direct LiveIndex calls on the same index. The corpus, the measure ×
// pipeline matrix, and the comparison strictness come from the shared
// internal/harness matrix, so this suite and the sharded equivalence
// suite walk the identical grid; the helpers here are only the
// HTTP-specific drivers.

// Local names for the shared matrix helpers, so the other server test
// files keep their vocabulary while the single definition lives in
// internal/harness.
func corpus(tb testing.TB, m bayeslsh.Measure, n int) (*bayeslsh.Dataset, []map[uint32]float64) {
	return harness.Corpus(tb, m, n)
}

func vecString(v map[uint32]float64) string { return harness.VecString(v) }

func newLive(tb testing.TB, ds *bayeslsh.Dataset, m bayeslsh.Measure, alg bayeslsh.Algorithm, threshold float64) *bayeslsh.LiveIndex {
	tb.Helper()
	return harness.NewLive(tb, ds, m, alg, threshold)
}

func matchesEqual(a, b []bayeslsh.Match) bool { return harness.MatchesEqual(a, b) }

// mustVec parses a wire vector or fails the test.
func mustVec(tb testing.TB, s string) bayeslsh.Vec {
	tb.Helper()
	q, err := ParseVec(s)
	if err != nil {
		tb.Fatalf("ParseVec(%q): %v", s, err)
	}
	return q
}

// ndRow is the union of every NDJSON line shape the server emits.
type ndRow struct {
	Query   *int    `json:"query"`
	ID      *int    `json:"id"`
	Sim     float64 `json:"sim"`
	Done    bool    `json:"done"`
	Queries int     `json:"queries"`
	Matches int     `json:"matches"`
	Error   string  `json:"error"`
	Status  int     `json:"status"`
}

// postJSON posts body and returns the response; the caller owns
// resp.Body.
func postJSON(tb testing.TB, url, body string) *http.Response {
	tb.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// decodeStream decodes an NDJSON body, requiring a done marker.
func decodeStream(tb testing.TB, body io.Reader) []ndRow {
	tb.Helper()
	var rows []ndRow
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	done := false
	for sc.Scan() {
		var r ndRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			tb.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if r.Error != "" {
			tb.Fatalf("in-band stream error: %s (status %d)", r.Error, r.Status)
		}
		if r.Done {
			done = true
			break
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if !done {
		tb.Fatal("stream ended without a done marker")
	}
	return rows
}

// servedQuery drives POST /v1/query and returns the matches.
func servedQuery(tb testing.TB, base, vec string, threshold float64) []bayeslsh.Match {
	tb.Helper()
	body, _ := json.Marshal(queryRequest{Vec: vec, Threshold: threshold})
	resp := postJSON(tb, base+"/v1/query", string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("query status %d: %s", resp.StatusCode, b)
	}
	return rowsToMatches(tb, decodeStream(tb, resp.Body))
}

// servedTopK drives POST /v1/topk.
func servedTopK(tb testing.TB, base, vec string, k int) []bayeslsh.Match {
	tb.Helper()
	body, _ := json.Marshal(topkRequest{Vec: vec, K: k})
	resp := postJSON(tb, base+"/v1/topk", string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("topk status %d: %s", resp.StatusCode, b)
	}
	return rowsToMatches(tb, decodeStream(tb, resp.Body))
}

// servedBatch drives POST /v1/batch, returning per-query match
// slices.
func servedBatch(tb testing.TB, base string, vecs []string, threshold float64) [][]bayeslsh.Match {
	tb.Helper()
	body, _ := json.Marshal(batchRequest{Vecs: vecs, Threshold: threshold})
	resp := postJSON(tb, base+"/v1/batch", string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("batch status %d: %s", resp.StatusCode, b)
	}
	out := make([][]bayeslsh.Match, len(vecs))
	for _, r := range decodeStream(tb, resp.Body) {
		if r.Query == nil || r.ID == nil {
			tb.Fatalf("batch row missing query/id: %+v", r)
		}
		out[*r.Query] = append(out[*r.Query], bayeslsh.Match{ID: *r.ID, Sim: r.Sim})
	}
	return out
}

func rowsToMatches(tb testing.TB, rows []ndRow) []bayeslsh.Match {
	tb.Helper()
	ms := make([]bayeslsh.Match, 0, len(rows))
	for _, r := range rows {
		if r.ID == nil {
			tb.Fatalf("row missing id: %+v", r)
		}
		ms = append(ms, bayeslsh.Match{ID: *r.ID, Sim: r.Sim})
	}
	return ms
}

// servedAdd drives POST /v1/add and returns the assigned id.
func servedAdd(tb testing.TB, base, vec string) int {
	tb.Helper()
	body, _ := json.Marshal(addRequest{Vec: vec})
	resp := postJSON(tb, base+"/v1/add", string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("add status %d: %s", resp.StatusCode, b)
	}
	var ar addResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		tb.Fatal(err)
	}
	return ar.ID
}

// servedDelete drives POST /v1/delete and reports whether the id was
// live.
func servedDelete(tb testing.TB, base string, id int) bool {
	tb.Helper()
	resp := postJSON(tb, base+"/v1/delete", fmt.Sprintf(`{"id":%d}`, id))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("delete status %d: %s", resp.StatusCode, b)
	}
	var dr deleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		tb.Fatal(err)
	}
	return dr.Deleted
}

// TestServedBitIdenticalToDirect is the acceptance harness: for every
// measure × pipeline, /v1/query, /v1/topk and /v1/batch responses are
// decoded and compared — ids and float64 similarities exactly equal —
// against direct LiveIndex calls on the same index, before and after
// HTTP-driven add/delete interleavings and an HTTP-driven compaction.
func TestServedBitIdenticalToDirect(t *testing.T) {
	for _, tc := range harness.Cells() {
		ds, maps := harness.Corpus(t, tc.Measure, 90)
		for _, alg := range harness.Pipelines(tc.Measure) {
			t.Run(fmt.Sprintf("%v/%v", tc.Measure, alg), func(t *testing.T) {
				li := harness.NewLive(t, ds, tc.Measure, alg, tc.Threshold)
				defer li.Close()
				// BatchChunk 4 makes an 11-query batch span 3 pinned
				// chunks, exercising the streamed chunk path.
				ts := httptest.NewServer(New(li, Config{BatchChunk: 4}).Handler())
				defer ts.Close()

				queries := make([]string, 0, 11)
				for _, mv := range maps[:10] {
					queries = append(queries, vecString(mv))
				}
				queries = append(queries, vecString(harness.PrepMap(tc.Measure, map[uint32]float64{3: 1, 44: 0.8, 199: 1.2})))

				check := func(stage string) {
					t.Helper()
					for _, qs := range queries[:4] {
						q := mustVec(t, qs)
						want, err := li.Query(q, bayeslsh.QueryOptions{})
						if err != nil {
							t.Fatalf("%s: direct query: %v", stage, err)
						}
						if got := servedQuery(t, ts.URL, qs, 0); !matchesEqual(got, want) {
							t.Fatalf("%s: served query != direct:\n got %v\nwant %v", stage, got, want)
						}
						wantK, err := li.TopK(q, 5)
						if err != nil {
							t.Fatalf("%s: direct topk: %v", stage, err)
						}
						if got := servedTopK(t, ts.URL, qs, 5); !matchesEqual(got, wantK) {
							t.Fatalf("%s: served topk != direct:\n got %v\nwant %v", stage, got, wantK)
						}
					}
					qvecs := make([]bayeslsh.Vec, len(queries))
					for i, qs := range queries {
						qvecs[i] = mustVec(t, qs)
					}
					want, err := li.QueryBatch(qvecs, bayeslsh.QueryOptions{})
					if err != nil {
						t.Fatalf("%s: direct batch: %v", stage, err)
					}
					got := servedBatch(t, ts.URL, queries, 0)
					for i := range want {
						if !matchesEqual(got[i], want[i]) {
							t.Fatalf("%s: served batch[%d] != direct:\n got %v\nwant %v", stage, i, got[i], want[i])
						}
					}
				}

				check("cold")

				// Mutate through the wire: two ingests (near-duplicates
				// of corpus vectors, so they land in result sets), two
				// deletes, one no-op delete.
				next := li.Stats().NextID
				for j, src := range maps[1:3] {
					if id := servedAdd(t, ts.URL, vecString(src)); id != next+j {
						t.Fatalf("add returned id %d, want %d", id, next+j)
					}
				}
				if !servedDelete(t, ts.URL, 0) {
					t.Fatal("delete(0) reported not deleted")
				}
				if servedDelete(t, ts.URL, 0) {
					t.Fatal("second delete(0) reported deleted")
				}
				check("post-mutation")

				resp := postJSON(t, ts.URL+"/v1/compact", "")
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Fatalf("compact status %d: %s", resp.StatusCode, b)
				}
				resp.Body.Close()
				check("post-compact")

				// Stats must reflect the interleaving through the wire.
				sresp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Fatal(err)
				}
				var stats statsResponse
				if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
					t.Fatal(err)
				}
				sresp.Body.Close()
				if stats.Live != li.Len() {
					t.Fatalf("stats live %d != direct Len %d", stats.Live, li.Len())
				}
				if stats.Algorithm != alg.String() || stats.Measure != tc.Measure.String() {
					t.Fatalf("stats identity %q/%q, want %q/%q", stats.Measure, stats.Algorithm, tc.Measure, alg)
				}
			})
		}
	}
}

// TestServedHotReload drives POST /v1/load: the served index is
// swapped atomically for one loaded through Config.Loader, answers
// switch to the new corpus, and the retired index is Closed — late
// mutations on it get ErrLiveClosed while the server keeps serving.
// Without a Loader the route is 501; a failing load leaves the old
// index serving untouched.
func TestServedHotReload(t *testing.T) {
	ds, maps := corpus(t, bayeslsh.Cosine, 30)
	old := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)

	// A grown snapshot to reload: same corpus plus one ingest.
	donor := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	if _, err := donor.Add(mustVec(t, vecString(maps[1]))); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "grown.snap")
	if err := donor.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	donor.Close()

	srv := New(old, Config{Loader: func(path string) (Serveable, error) {
		return bayeslsh.OpenLiveFile(path, harness.LiveConfig())
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/load", `{"path":"/nonexistent/nope.snap"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("load of missing path: status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	if got := servedQuery(t, ts.URL, vecString(maps[0]), 0); got == nil {
		t.Fatal("failed load took the old index out of service")
	}

	resp = postJSON(t, ts.URL+"/v1/load", fmt.Sprintf(`{"path":%q}`, snap))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("load status %d: %s", resp.StatusCode, b)
	}
	var lr loadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lr.Live != 31 || lr.NextID != 31 {
		t.Fatalf("load response live=%d next=%d, want 31/31", lr.Live, lr.NextID)
	}

	// The swap is visible: stats now reflect the grown corpus, and the
	// retired index is closed to mutations.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Live != 31 {
		t.Fatalf("post-load stats live = %d, want 31", stats.Live)
	}
	if _, err := old.Add(mustVec(t, vecString(maps[2]))); !errors.Is(err, bayeslsh.ErrLiveClosed) {
		t.Fatalf("retired index Add err = %v, want ErrLiveClosed", err)
	}
	srv.index().Close()

	// No Loader configured: the route answers 501.
	bare := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	defer bare.Close()
	ts2 := httptest.NewServer(New(bare, Config{}).Handler())
	defer ts2.Close()
	resp = postJSON(t, ts2.URL+"/v1/load", fmt.Sprintf(`{"path":%q}`, snap))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("loaderless /v1/load status %d, want 501", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServedSaveRoundTrip drives POST /v1/save over a mutated index
// and proves the snapshot reloads into an index whose direct answers
// equal the answers the server was giving — the serve/save/reload
// consistency triangle.
func TestServedSaveRoundTrip(t *testing.T) {
	ds, maps := corpus(t, bayeslsh.Cosine, 60)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSHBayesLSH, 0.6)
	defer li.Close()
	ts := httptest.NewServer(New(li, Config{}).Handler())
	defer ts.Close()

	servedAdd(t, ts.URL, vecString(maps[2]))
	servedDelete(t, ts.URL, 1)

	path := filepath.Join(t.TempDir(), "live.snap")
	resp := postJSON(t, ts.URL+"/v1/save", fmt.Sprintf(`{"path":%q}`, path))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("save status %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	loaded, err := bayeslsh.OpenLiveFile(path, harness.LiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, mv := range maps[:6] {
		qs := vecString(mv)
		served := servedQuery(t, ts.URL, qs, 0)
		direct, err := loaded.Query(mustVec(t, qs), bayeslsh.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(served, direct) {
			t.Fatalf("loaded snapshot query != served:\n got %v\nwant %v", direct, served)
		}
	}
}
