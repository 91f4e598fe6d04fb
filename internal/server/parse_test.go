package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bayeslsh"
)

// TestParseVecTokens is the table-driven contract of the shared wire
// grammar: what both the stdin loop and the HTTP bodies accept, and
// the exact failures they reject.
func TestParseVecTokens(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantLen int    // non-zero features of the parsed vector
		wantErr string // substring; empty = must parse
	}{
		{name: "weighted", in: "1:0.5 2:0.25 7:1", wantLen: 3},
		{name: "weight defaults to 1", in: "3 9 12", wantLen: 3},
		{name: "duplicates sum", in: "5:0.5 5:0.25", wantLen: 1},
		{name: "duplicates cancel to zero", in: "5:0.5 5:-0.5", wantLen: 0},
		{name: "scientific notation", in: "2:1e-3", wantLen: 1},
		{name: "max uint32 feature", in: "4294967295:1", wantLen: 1},
		{name: "empty", in: "", wantErr: "empty vector"},
		{name: "whitespace only", in: "   ", wantErr: "empty vector"},
		{name: "negative feature", in: "-1:0.5", wantErr: `bad feature "-1:0.5"`},
		{name: "feature overflow", in: "4294967296:1", wantErr: "bad feature"},
		{name: "non-numeric feature", in: "x:1", wantErr: `bad feature "x:1"`},
		{name: "float feature", in: "1.5:1", wantErr: "bad feature"},
		{name: "bad weight", in: "1:x", wantErr: `bad weight "1:x"`},
		{name: "empty weight", in: "1:", wantErr: "bad weight"},
		{name: "NaN weight", in: "1:NaN", wantErr: `non-finite weight "1:NaN"`},
		{name: "Inf weight", in: "1:Inf", wantErr: "non-finite weight"},
		{name: "negative Inf weight", in: "1:-inf", wantErr: "non-finite weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := ParseVec(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseVec(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseVec(%q): %v", tc.in, err)
			}
			if v.Len() != tc.wantLen {
				t.Fatalf("ParseVec(%q).Len() = %d, want %d", tc.in, v.Len(), tc.wantLen)
			}
		})
	}
}

// TestFormatVecRoundTrip is the wire fidelity contract the sharded
// HTTP backend rests on: ParseVec(FormatVec(q)) reproduces q with the
// exact float64 bits, including values with no short decimal form.
func TestFormatVecRoundTrip(t *testing.T) {
	cases := []map[uint32]float64{
		{1: 0.5, 2: 0.25, 7: 1},
		{3: 1.0 / 3.0, 44: 0.1 + 0.2, 199: 1e-17},
		{0: 1e308, 4294967295: 5e-324}, // extreme magnitudes, extreme features
		{9: -0.75, 10: 123456789.123456789},
	}
	for _, m := range cases {
		q := bayeslsh.NewVec(m)
		back, err := ParseVec(FormatVec(q))
		if err != nil {
			t.Fatalf("ParseVec(FormatVec(%v)): %v", m, err)
		}
		bi, bv := back.Features()
		qi, qv := q.Features()
		if len(bi) != len(qi) {
			t.Fatalf("round trip changed length: %d -> %d", len(qi), len(bi))
		}
		for j := range qi {
			if bi[j] != qi[j] || bv[j] != qv[j] {
				t.Fatalf("round trip changed feature %d: (%d,%v) -> (%d,%v)", j, qi[j], qv[j], bi[j], bv[j])
			}
		}
	}
	// The matrix corpus renders through the same grammar: VecString of
	// a raw map and FormatVec of its parsed Vec must agree token for
	// token, so either side of a test can render a query.
	q := mustVec(t, "5:0.30000000000000004 9:1")
	if got, want := FormatVec(q), "5:0.30000000000000004 9:1"; got != want {
		t.Fatalf("FormatVec = %q, want %q", got, want)
	}
}

// hostileServer builds one shared server for the hostile-input tests:
// a tiny body cap so the oversize path is reachable with small
// payloads.
func hostileServer(tb testing.TB) (*Server, *bayeslsh.LiveIndex) {
	tb.Helper()
	ds, _ := corpus(tb, bayeslsh.Cosine, 30)
	li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine,
		bayeslsh.EngineConfig{Seed: 7}, bayeslsh.Options{Algorithm: bayeslsh.LSH, Threshold: 0.6},
		bayeslsh.LiveConfig{MaxDelta: -1, MaxRatio: -1})
	if err != nil {
		tb.Fatal(err)
	}
	return New(li, Config{MaxBody: 4 << 10}), li
}

// TestHostileRequests: malformed JSON, non-finite weights, oversized
// bodies, bad ids, bad parameters, wrong methods, unknown routes —
// every one a typed 4xx with a JSON error body, never a panic, never
// a 5xx.
func TestHostileRequests(t *testing.T) {
	srv, li := hostileServer(t)
	defer li.Close()
	h := srv.Handler()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"empty body", "POST", "/v1/query", ``, 400},
		{"not json", "POST", "/v1/query", `not json at all`, 400},
		{"truncated json", "POST", "/v1/query", `{"vec":"1:0.5"`, 400},
		{"trailing garbage", "POST", "/v1/query", `{"vec":"1:0.5"} extra`, 400},
		{"unknown field", "POST", "/v1/query", `{"vec":"1:0.5","bogus":1}`, 400},
		{"wrong vec type", "POST", "/v1/query", `{"vec":[1,2]}`, 400},
		{"empty vec", "POST", "/v1/query", `{"vec":""}`, 400},
		{"NaN weight", "POST", "/v1/query", `{"vec":"1:NaN 2:0.5"}`, 400},
		{"Inf weight", "POST", "/v1/query", `{"vec":"1:Inf"}`, 400},
		{"bad feature", "POST", "/v1/query", `{"vec":"-1:0.5"}`, 400},
		{"threshold above 1", "POST", "/v1/query", `{"vec":"1:0.5","threshold":1.5}`, 400},
		{"threshold below built", "POST", "/v1/query", `{"vec":"1:0.5","threshold":0.1}`, 400},
		{"json NaN literal", "POST", "/v1/query", `{"vec":"1:0.5","threshold":NaN}`, 400},
		{"oversized body", "POST", "/v1/query", fmt.Sprintf(`{"vec":%q}`, strings.Repeat("1:0.5 ", 2000)), 413},
		{"k zero", "POST", "/v1/topk", `{"vec":"1:0.5","k":0}`, 400},
		{"k negative", "POST", "/v1/topk", `{"vec":"1:0.5","k":-3}`, 400},
		{"k wrong type", "POST", "/v1/topk", `{"vec":"1:0.5","k":"ten"}`, 400},
		{"batch bad vec", "POST", "/v1/batch", `{"vecs":["1:0.5","x:y"]}`, 400},
		{"batch wrong type", "POST", "/v1/batch", `{"vecs":"1:0.5"}`, 400},
		{"add empty vec", "POST", "/v1/add", `{"vec":""}`, 400},
		{"add NaN", "POST", "/v1/add", `{"vec":"1:nan"}`, 400},
		{"add out-of-range feature", "POST", "/v1/add", `{"vec":"400000:1"}`, 400},
		{"add largest feature index", "POST", "/v1/add", `{"vec":"4294967295:1e308"}`, 400},
		{"delete missing id", "POST", "/v1/delete", `{}`, 400},
		{"delete string id", "POST", "/v1/delete", `{"id":"seven"}`, 400},
		{"delete float id", "POST", "/v1/delete", `{"id":1.5}`, 400},
		{"save missing path", "POST", "/v1/save", `{}`, 400},
		{"query via GET", "GET", "/v1/query", ``, 405},
		{"stats via POST", "POST", "/v1/stats", `{}`, 405},
		{"unknown route", "POST", "/v1/nope", `{}`, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
			if rec.Code >= 500 {
				t.Fatalf("hostile input produced a 5xx: %s", rec.Body)
			}
			// Routed 4xx responses carry a JSON error body (the mux's
			// own 404/405 text responses are exempt).
			if rec.Code != 404 && rec.Code != 405 {
				var ae apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Error == "" {
					t.Fatalf("error body not apiError JSON: %q", rec.Body)
				}
			}
		})
	}
}

// TestLargestFeatureIndex pins the answer to a feature index that does
// not fit a 32-bit int: no corpus vector has it, so a query matches
// nothing and an add is out of range, on every architecture.
func TestLargestFeatureIndex(t *testing.T) {
	srv, li := hostileServer(t)
	defer li.Close()
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"vec":"4294967295:1e308"}`))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	if lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `"done":true`) {
		t.Fatalf("query answered %q, want only the done marker", rec.Body)
	}
	if _, err := li.Add(bayeslsh.NewVec(map[uint32]float64{4294967295: 1})); !errors.Is(err, bayeslsh.ErrVecOutOfRange) {
		t.Fatalf("Add: %v, want ErrVecOutOfRange", err)
	}
}

// FuzzQueryRequest throws arbitrary bytes at the decode → parse →
// query path of /v1/query and /v1/add: any outcome is fine except a
// panic or a 5xx.
func FuzzQueryRequest(f *testing.F) {
	srv, li := hostileServer(f)
	defer li.Close()
	h := srv.Handler()

	f.Add(`{"vec":"1:0.5 2:0.25"}`)
	f.Add(`{"vec":"1:NaN"}`)
	f.Add(`{"vec":"","threshold":2}`)
	f.Add(`{"vec":"4294967295:1e308"}`)
	f.Add(`{`)
	f.Add(`[]`)
	f.Add("\x00\x01\xff")
	f.Add(`{"vec":"1:0.5","threshold":0.99}`)
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/query", "/v1/add"} {
			req := httptest.NewRequest("POST", path, strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s: body %q produced status %d: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}

// TestMetricsExposition: the text endpoint carries the per-route
// counters, the in-flight gauge and the live-segment stats, and
// counts 4xx separately from 2xx.
func TestMetricsExposition(t *testing.T) {
	srv, li := hostileServer(t)
	defer li.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	servedQuery(t, ts.URL, "1:0.5 2:0.5", 0)
	resp := postJSON(t, ts.URL+"/v1/query", `broken`)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`apss_requests_total{route="query",class="2xx"} 1`,
		`apss_requests_total{route="query",class="4xx"} 1`,
		`apss_request_duration_seconds_count{route="query"} 2`,
		"apss_in_flight 0",
		"apss_handler_panics_total 0",
		"apss_live_vectors 30",
		`apss_live_segment_vectors{segment="base"} 30`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
