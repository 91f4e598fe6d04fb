package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bayeslsh"
	"bayeslsh/internal/server"
)

// Integration test of the compiled binary: build apss, run
// "serve -http 127.0.0.1:0", learn the port from the "http listening
// on" stderr line, drive the HTTP API, and check every served result
// bit-identical against an in-process index built from the same
// corpus file with the same seed. SIGTERM must drain cleanly (exit
// 0) and leave a -drain-save snapshot that loads and agrees with
// what was served.

// buildApss compiles the apss binary once and returns its path.
func buildApss(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "apss")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeCorpus generates a deterministic clustered corpus (unit-
// normalized, since -file datasets are served as stored), writes it
// in the library's vector format, and returns the path plus the wire
// rendering of every vector.
func writeCorpus(t *testing.T, dir string, n int) (string, []string) {
	t.Helper()
	const dim = 300
	rng := rand.New(rand.NewSource(11))
	ds := bayeslsh.NewDataset(dim)
	wires := make([]string, 0, n)
	var center map[uint32]float64
	for i := 0; i < n; i++ {
		if i%3 == 0 || center == nil {
			center = make(map[uint32]float64, 16)
			for len(center) < 16 {
				center[uint32(rng.Intn(dim))] = 0.5 + rng.Float64()
			}
		}
		v := make(map[uint32]float64, len(center)+1)
		for f, w := range center {
			v[f] = w
		}
		if i%3 != 0 {
			v[uint32(rng.Intn(dim))] = 0.5 + rng.Float64()
		}
		var ss float64
		for _, w := range v {
			ss += w * w
		}
		norm := math.Sqrt(ss)
		for f, w := range v {
			v[f] = w / norm
		}
		ds.Add(v)
		wires = append(wires, wireVec(v))
	}
	path := filepath.Join(dir, "corpus.vec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, wires
}

// wireVec renders a feature map in the wire grammar with exact
// shortest-round-trip weights, so the HTTP body parses back to the
// identical Vec.
func wireVec(v map[uint32]float64) string {
	feats := make([]uint32, 0, len(v))
	for f := range v {
		feats = append(feats, f)
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
	var b strings.Builder
	for i, f := range feats {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", f, strconv.FormatFloat(v[f], 'g', -1, 64))
	}
	return b.String()
}

// serveProc is a running "apss serve -http" child process. Its stderr
// is copied into log by a reader goroutine, which closes done at EOF.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	mu   sync.Mutex
	log  strings.Builder
	done chan struct{}
}

// stderr returns what the process has written to stderr so far.
func (p *serveProc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// wait reads stderr to EOF, then reaps the process: exec.Cmd.Wait
// closes the pipe, so calling it first could drop the last lines.
func (p *serveProc) wait() error {
	<-p.done
	return p.cmd.Wait()
}

// startServe launches the binary and waits for the listening line.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"serve"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(&p.log, line)
			p.mu.Unlock()
			if _, a, ok := strings.Cut(line, "http listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
		close(addrCh)
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			p.wait()
			t.Fatalf("serve exited before listening:\n%s", p.stderr())
		}
		p.addr = a
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("timed out waiting for listening line:\n%s", p.stderr())
	}
	return p
}

func (p *serveProc) url(path string) string { return "http://" + p.addr + path }

// httpMatches posts a query/topk body and decodes the NDJSON stream,
// requiring the done marker.
func httpMatches(t *testing.T, url, body string) []bayeslsh.Match {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	var (
		ms   []bayeslsh.Match
		done bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row struct {
			ID      *int    `json:"id"`
			Sim     float64 `json:"sim"`
			Done    bool    `json:"done"`
			Matches int     `json:"matches"`
			Error   string  `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if row.Error != "" {
			t.Fatalf("in-band stream error: %s", row.Error)
		}
		if row.Done {
			done = true
			if row.Matches != len(ms) {
				t.Fatalf("done marker counts %d matches, stream had %d", row.Matches, len(ms))
			}
			continue
		}
		if row.ID == nil {
			t.Fatalf("match row without id: %q", sc.Text())
		}
		ms = append(ms, bayeslsh.Match{ID: *row.ID, Sim: row.Sim})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("stream ended without done marker")
	}
	return ms
}

// wantMatches asserts strict equality of served and direct results.
func wantMatches(t *testing.T, what string, got, want []bayeslsh.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches served, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestServeHTTPIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the apss binary")
	}
	bin := buildApss(t)
	dir := t.TempDir()
	corpusPath, wires := writeCorpus(t, dir, 60)
	snapPath := filepath.Join(dir, "drain.snap")

	// The expected side: the same corpus file, seed and worker count
	// the binary gets, loaded through the same reader.
	f, err := os.Open(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := bayeslsh.ReadDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine,
		bayeslsh.EngineConfig{Seed: 42, Parallelism: 2},
		bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.7},
		bayeslsh.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()

	p := startServe(t, bin,
		"-file", corpusPath, "-t", "0.7", "-parallel", "2",
		"-http", "127.0.0.1:0", "-drain-save", snapPath)
	defer p.cmd.Process.Kill() // no-op after a clean Wait

	// Served threshold queries and top-k, bit-identical to direct.
	for _, i := range []int{0, 1, 13, 59} {
		q, err := server.ParseVec(wires[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := li.Query(q, bayeslsh.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]string{"vec": wires[i]})
		wantMatches(t, fmt.Sprintf("query %d", i),
			httpMatches(t, p.url("/v1/query"), string(body)), want)

		wantK, err := li.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		kbody, _ := json.Marshal(map[string]any{"vec": wires[i], "k": 3})
		wantMatches(t, fmt.Sprintf("topk %d", i),
			httpMatches(t, p.url("/v1/topk"), string(kbody)), wantK)
	}

	// Ingest over HTTP mirrors Add on the expected side: same id, and
	// queries agree afterwards.
	newVec := wires[0] // a duplicate of vector 0: guaranteed matches
	body, _ := json.Marshal(map[string]string{"vec": newVec})
	resp, err := http.Post(p.url("/v1/add"), "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var added struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	q0, err := server.ParseVec(newVec)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := li.Add(q0)
	if err != nil {
		t.Fatal(err)
	}
	if added.ID != wantID {
		t.Fatalf("served add id %d, want %d", added.ID, wantID)
	}
	want, err := li.Query(q0, bayeslsh.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	served := httpMatches(t, p.url("/v1/query"), string(body))
	wantMatches(t, "query after add", served, want)

	// Stats reflect the ingest.
	sresp, err := http.Get(p.url("/v1/stats"))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Live int `json:"live"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Live != li.Len() {
		t.Fatalf("served live = %d, want %d", st.Live, li.Len())
	}

	// SIGTERM: graceful drain, exit 0, snapshot written.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(); err != nil {
		t.Fatalf("serve exited %v after SIGTERM:\n%s", err, p.stderr())
	}
	if !strings.Contains(p.stderr(), "drained") {
		t.Fatalf("no drain message in stderr:\n%s", p.stderr())
	}

	// The drain snapshot resumes to the served state: same length,
	// and the post-add query answers match what was served.
	loaded, err := bayeslsh.OpenLiveFile(snapPath, bayeslsh.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != li.Len() {
		t.Fatalf("snapshot holds %d vectors, want %d", loaded.Len(), li.Len())
	}
	fromSnap, err := loaded.Query(q0, bayeslsh.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantMatches(t, "drain snapshot query", fromSnap, served)
}

// TestServeShardedIntegration drives the compiled binary in -shards
// mode: the daemon partitions the corpus behind the scatter-gather
// router, serves answers bit-identical to a single-node in-process
// index, ingests over HTTP with the single-node id assignment, drains
// to a cluster manifest on SIGTERM — and a second daemon restores
// that manifest through POST /v1/load, serving the grown corpus.
func TestServeShardedIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the apss binary")
	}
	bin := buildApss(t)
	dir := t.TempDir()
	corpusPath, wires := writeCorpus(t, dir, 60)
	manifest := filepath.Join(dir, "cluster.snap")

	f, err := os.Open(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := bayeslsh.ReadDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	li, err := bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine,
		bayeslsh.EngineConfig{Seed: 42, Parallelism: 2},
		bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.7},
		bayeslsh.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()

	p := startServe(t, bin,
		"-file", corpusPath, "-t", "0.7", "-parallel", "2", "-shards", "3",
		"-http", "127.0.0.1:0", "-drain-save", manifest)
	defer p.cmd.Process.Kill()
	if !strings.Contains(p.stderr(), "sharded 3 ways") {
		t.Fatalf("no sharding banner in stderr:\n%s", p.stderr())
	}

	for _, i := range []int{0, 7, 31, 59} {
		q, err := server.ParseVec(wires[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := li.Query(q, bayeslsh.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]string{"vec": wires[i]})
		wantMatches(t, fmt.Sprintf("sharded query %d", i),
			httpMatches(t, p.url("/v1/query"), string(body)), want)

		wantK, err := li.TopK(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		kbody, _ := json.Marshal(map[string]any{"vec": wires[i], "k": 4})
		wantMatches(t, fmt.Sprintf("sharded topk %d", i),
			httpMatches(t, p.url("/v1/topk"), string(kbody)), wantK)
	}

	// Sharded ingest assigns the same global id the single-node index
	// would, and queries agree afterwards.
	body, _ := json.Marshal(map[string]string{"vec": wires[1]})
	resp, err := http.Post(p.url("/v1/add"), "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var added struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	q1, err := server.ParseVec(wires[1])
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := li.Add(q1)
	if err != nil {
		t.Fatal(err)
	}
	if added.ID != wantID {
		t.Fatalf("sharded add id %d, want %d", added.ID, wantID)
	}
	want, err := li.Query(q1, bayeslsh.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	served := httpMatches(t, p.url("/v1/query"), string(body))
	wantMatches(t, "sharded query after add", served, want)

	// SIGTERM drains to a cluster manifest plus per-shard snapshots.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(); err != nil {
		t.Fatalf("sharded serve exited %v after SIGTERM:\n%s", err, p.stderr())
	}
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("no cluster manifest after drain: %v", err)
	}

	// A fresh sharded daemon hot-loads the manifest via POST /v1/load
	// and serves the grown (61-vector) corpus identically.
	p2 := startServe(t, bin,
		"-file", corpusPath, "-t", "0.7", "-parallel", "2", "-shards", "3",
		"-http", "127.0.0.1:0")
	defer p2.cmd.Process.Kill()
	lbody, _ := json.Marshal(map[string]string{"path": manifest})
	lresp, err := http.Post(p2.url("/v1/load"), "application/json", strings.NewReader(string(lbody)))
	if err != nil {
		t.Fatal(err)
	}
	var loaded struct {
		Live int `json:"live"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&loaded); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK || loaded.Live != li.Len() {
		t.Fatalf("load status %d live %d, want 200 live %d:\n%s", lresp.StatusCode, loaded.Live, li.Len(), p2.stderr())
	}
	wantMatches(t, "restored sharded query", httpMatches(t, p2.url("/v1/query"), string(body)), served)
	p2.cmd.Process.Signal(syscall.SIGTERM)
	p2.wait()
}
