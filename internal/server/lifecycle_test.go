package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bayeslsh"
)

// Lifecycle coverage: parallel clients racing ingest under -race,
// mid-request cancellation and deadline paths with goroutine-leak
// accounting, the admission gate, and graceful drain with zero
// dropped in-flight requests.

// requireNoGoroutineLeak polls until the goroutine count returns to
// the recorded baseline (the context_test.go pattern: counts may
// transiently exceed it while canceled work drains; they must
// settle).
func requireNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerParallelClientsRacingIngest hammers one server from
// parallel query, mutation and observability clients — the
// ingest-while-serving contract over the wire, meaningful under
// -race. Every response must be well-formed and non-5xx.
func TestServerParallelClientsRacingIngest(t *testing.T) {
	base := runtime.NumGoroutine()
	ds, maps := corpus(t, bayeslsh.Cosine, 60)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSHBayesLSHLite, 0.6)
	ts := httptest.NewServer(New(li, Config{BatchChunk: 3}).Handler())

	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for c := 0; c < 4; c++ { // query clients
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 15 && failures.Load() == 0; i++ {
				qs := vecString(maps[(c*7+i)%len(maps)])
				body, _ := json.Marshal(queryRequest{Vec: qs})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					fail("query client %d: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					fail("query client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
				sc := json.NewDecoder(resp.Body)
				for {
					var r ndRow
					if err := sc.Decode(&r); err != nil {
						fail("query client %d: decode: %v", c, err)
						break
					}
					if r.Done {
						break
					}
				}
				resp.Body.Close()
			}
		}(c)
	}
	for c := 0; c < 2; c++ { // mutation clients
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10 && failures.Load() == 0; i++ {
				body, _ := json.Marshal(addRequest{Vec: vecString(maps[(c*11+i)%len(maps)])})
				resp, err := http.Post(ts.URL+"/v1/add", "application/json", strings.NewReader(string(body)))
				if err != nil {
					fail("add client %d: %v", c, err)
					return
				}
				var ar addResponse
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					fail("add client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
					fail("add client %d: %v", c, err)
				}
				resp.Body.Close()
				if i%3 == 0 {
					resp, err := http.Post(ts.URL+"/v1/delete", "application/json",
						strings.NewReader(fmt.Sprintf(`{"id":%d}`, ar.ID)))
					if err != nil {
						fail("delete client %d: %v", c, err)
						return
					}
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // observability client
		defer wg.Done()
		for i := 0; i < 10 && failures.Load() == 0; i++ {
			for _, path := range []string{"/v1/stats", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					fail("GET %s: %v", path, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail("GET %s: status %d", path, resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()

	ts.Close()
	li.Close()
	http.DefaultClient.CloseIdleConnections()
	requireNoGoroutineLeak(t, base)
}

// TestServerDeadline: a request whose X-Apss-Timeout has already
// elapsed by the time the index is consulted gets a clean 504 with a
// JSON error body, and the server leaks nothing.
func TestServerDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	ds, maps := corpus(t, bayeslsh.Cosine, 30)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	ts := httptest.NewServer(New(li, Config{}).Handler())

	body, _ := json.Marshal(queryRequest{Vec: vecString(maps[0])})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TimeoutHeader, "1ns")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, b)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatalf("504 body not JSON: %v", err)
	}
	resp.Body.Close()
	if ae.Status != http.StatusGatewayTimeout || ae.Error == "" {
		t.Fatalf("bad error body: %+v", ae)
	}

	// An unparsable override is a 400, not a silent fallback.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader(string(body)))
	req.Header.Set(TimeoutHeader, "soon")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout header: status %d, want 400", resp.StatusCode)
	}

	ts.Close()
	li.Close()
	http.DefaultClient.CloseIdleConnections()
	requireNoGoroutineLeak(t, base)
}

// TestServerClientCancelMidRequest: a client that disappears while
// its request is held in flight must not leak a goroutine or wedge
// the server — the handler finishes against a dead connection and the
// next client is served normally.
func TestServerClientCancelMidRequest(t *testing.T) {
	base := runtime.NumGoroutine()
	ds, maps := corpus(t, bayeslsh.Cosine, 30)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	srv := New(li, Config{})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.testHook = func(string) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())

	body, _ := json.Marshal(queryRequest{Vec: vecString(maps[0])})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query", strings.NewReader(string(body)))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-entered // the request is in flight
	cancel()  // the client walks away mid-request
	if err := <-errc; err == nil {
		t.Fatal("expected the canceled client call to fail")
	}
	close(release) // the handler now runs against a dead connection

	// The server must still serve the next client.
	srv.testHook = nil
	if got := servedQuery(t, ts.URL, vecString(maps[1]), 0); got == nil {
		t.Log("empty result is fine; the assertion is the 200 path")
	}

	ts.Close()
	li.Close()
	http.DefaultClient.CloseIdleConnections()
	requireNoGoroutineLeak(t, base)
}

// TestServerAdmissionGate: with MaxInFlight=1 and one request held in
// the handler, the next request is refused with 429 + Retry-After
// before any index work, and admission recovers once the slot frees.
func TestServerAdmissionGate(t *testing.T) {
	base := runtime.NumGoroutine()
	ds, maps := corpus(t, bayeslsh.Cosine, 30)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	srv := New(li, Config{MaxInFlight: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHook = func(string) {
		select {
		case entered <- struct{}{}:
			<-release
		default: // later requests pass through
		}
	}
	ts := httptest.NewServer(srv.Handler())

	body, _ := json.Marshal(queryRequest{Vec: vecString(maps[0])})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered

	resp := postJSON(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	close(release)
	<-done
	// The slot is free again: the same request is now admitted.
	resp = postJSON(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ts.Close()
	li.Close()
	http.DefaultClient.CloseIdleConnections()
	requireNoGoroutineLeak(t, base)
}

// TestServerGracefulDrain is the SIGTERM-equivalent shutdown path: a
// request held in flight when Shutdown begins runs to completion (its
// stream ends with the done marker — zero dropped in-flight
// requests), new requests are refused, Shutdown returns cleanly, the
// drain snapshot is written, and no goroutine survives.
func TestServerGracefulDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	ds, maps := corpus(t, bayeslsh.Cosine, 30)
	li := newLive(t, ds, bayeslsh.Cosine, bayeslsh.LSH, 0.6)
	snap := filepath.Join(t.TempDir(), "drain.snap")
	srv := New(li, Config{DrainSave: snap})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHook = func(route string) {
		if route != "query" {
			return // the drain probes below must not be held
		}
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// Hold one request in flight.
	body, _ := json.Marshal(queryRequest{Vec: vecString(maps[0])})
	type result struct {
		ms  []bayeslsh.Match
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- result{err: fmt.Errorf("status %d", resp.StatusCode)}
			return
		}
		var last ndRow
		ms := []bayeslsh.Match{}
		dec := json.NewDecoder(resp.Body)
		for {
			var r ndRow
			if err := dec.Decode(&r); err != nil {
				inflight <- result{err: fmt.Errorf("stream ended before done: %v", err)}
				return
			}
			if r.Done {
				last = r
				break
			}
			if r.ID != nil {
				ms = append(ms, bayeslsh.Match{ID: *r.ID, Sim: r.Sim})
			}
		}
		if !last.Done {
			inflight <- result{err: errors.New("no done marker")}
			return
		}
		inflight <- result{ms: ms}
	}()
	<-entered

	// Begin the drain while that request is still in flight.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// New connections are refused once the listener closes; a request
	// that does land on an open connection gets 503. Either way no new
	// work is accepted.
	refusedDeadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			break // connection refused: the listener is closed
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatal("drain never started refusing new requests")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight request must complete, not be dropped.
	release <- struct{}{}
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", res.err)
	}
	want, err := li.Query(mustVec(t, vecString(maps[0])), bayeslsh.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(res.ms, want) {
		t.Fatalf("drained in-flight response diverged:\n got %v\nwant %v", res.ms, want)
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// The final snapshot exists and reloads.
	loaded, err := bayeslsh.OpenLiveFile(snap, bayeslsh.LiveConfig{})
	if err != nil {
		t.Fatalf("drain snapshot unreadable: %v", err)
	}
	loaded.Close()

	li.Close()
	http.DefaultClient.CloseIdleConnections()
	requireNoGoroutineLeak(t, base)
}
