package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"bayeslsh"
)

// BenchmarkServeQuery measures the full serving path — HTTP request,
// JSON decode, wire-grammar parse, LiveIndex query, NDJSON encode —
// for one client issuing point queries back to back, and reports
// req/s with p50/p99 request latencies. It runs by hand; the gated
// serving numbers are bench/'s serve_* workloads.
func BenchmarkServeQuery(b *testing.B) {
	ds, maps := corpus(b, bayeslsh.Cosine, 1000)
	li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine,
		bayeslsh.EngineConfig{Seed: 7},
		bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.6},
		bayeslsh.LiveConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer li.Close()
	ts := httptest.NewServer(New(li, Config{}).Handler())
	defer ts.Close()

	bodies := make([]string, 64)
	for i := range bodies {
		raw, _ := json.Marshal(queryRequest{Vec: vecString(maps[i*7%len(maps)])})
		bodies[i] = string(raw)
	}
	client := ts.Client()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	b.ReportMetric(float64(b.N)/sum.Seconds(), "req/s")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/req")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/req")
}
