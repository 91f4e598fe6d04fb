package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bayeslsh"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/vector"
)

// serveSpec fixes one serving workload: how the daemon is started and
// what traffic it gets. Every workload serves the same RCV1-shaped
// corpus with the LSH+BayesLSH pipeline at t = 0.7.
type serveSpec struct {
	snapshot bool // build a v3 snapshot first and serve it mmap'd (-index)
	cache    int  // -cache-size
	shards   int  // -shards
	zipf     bool // Zipf(1.1) query skew instead of uniform
	writer   bool // second connection is a paced add/delete writer, not a reader
}

var serveSpecs = map[string]serveSpec{
	"serve_read":    {snapshot: true},
	"serve_mixed":   {cache: 1024, zipf: true, writer: true},
	"serve_sharded": {shards: 2},
}

const (
	clients      = 2   // closed-loop connections (one of them the writer on serve_mixed)
	writeRate    = 300 // writer ops per second, 3 adds : 1 delete
	serveSetups  = 3   // timed set-ups per run
	finalSamples = 500 // queries compared after /v1/compact on serve_mixed

	// The timed phase is cut into windows of this length and every
	// serving metric is the median over the windows of the window's own
	// value. The sandbox is a few cores of a shared host whose speed
	// moves by the second: a burst that slows a fiftieth of the queries
	// moves a whole-run p99 by a quarter, but spoils one window.
	serveWindow = time.Second
	servePct    = 95                    // op_tail_ms within a window: 40-150 samples beyond it
	rssEvery    = 50 * time.Millisecond // how often the daemon's resident set is sampled
)

var serveOpts = bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: serveThreshold}

// stderrWatch collects a child's stderr and announces the address from
// its "http listening on <addr>" line.
type stderrWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "http listening on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.addr <- strings.TrimSpace(s[i+len(marker) : i+j])
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// serverProc is one apss serve child. It binds 127.0.0.1:0, so no
// fixed port can collide with a leftover process; it gets SIGKILL if
// the benchmark dies, and stop() always waits for it.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	stderr *stderrWatch
	done   chan struct{}
	err    error // cmd.Wait's result, valid once done is closed
}

func startServer(ctx context.Context, apss string, args ...string) (*serverProc, error) {
	p := &serverProc{
		cmd:    exec.CommandContext(ctx, apss, append([]string{"serve", "-parallel", strconv.Itoa(workers), "-http", "127.0.0.1:0"}, args...)...),
		stderr: &stderrWatch{addr: make(chan string, 1)},
		done:   make(chan struct{}),
	}
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// A canceled run (Ctrl-C) drains the server like stop does.
	p.cmd.Cancel = func() error { return p.cmd.Process.Signal(syscall.SIGTERM) }
	p.cmd.WaitDelay = stopGrace
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start apss serve: %w", err)
	}
	//apsslint:allow gohygiene one waiter per child process; it ends when the child does, and stop() joins it through done
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case addr := <-p.stderr.addr:
		p.base = "http://" + addr
	case <-p.done:
		return nil, fmt.Errorf("apss serve exited before listening: %v\n%s", p.err, p.stderr)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	case <-time.After(time.Minute):
		p.stop()
		return nil, fmt.Errorf("apss serve did not listen within a minute\n%s", p.stderr)
	}
	c := newConn(p.base)
	defer c.close()
	for {
		if _, status, err := c.do(ctx, http.MethodGet, "/v1/stats", nil); err == nil && status == http.StatusOK {
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("apss serve exited before answering /v1/stats: %v\n%s", p.err, p.stderr)
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stopGrace is how long a server may take to drain before it is killed.
const stopGrace = 15 * time.Second

// stop drains the server with SIGTERM and waits for it; a server that
// ignores the signal for stopGrace is killed. The error reports an
// unclean exit.
func (p *serverProc) stop() error {
	select {
	case <-p.done:
		return p.err
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-gone process shows in Wait's result
	select {
	case <-p.done:
	case <-time.After(stopGrace):
		_ = p.cmd.Process.Kill() // likewise
		<-p.done
		return fmt.Errorf("apss serve ignored SIGTERM for %v and was killed", stopGrace)
	}
	return p.err
}

// conn is one client connection: its own transport holding at most one
// TCP connection, and a response buffer reused across requests.
type conn struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned
// bytes are valid until the next call.
func (c *conn) do(ctx context.Context, method, route string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+route, rd)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", route, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", route, err)
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%s: read response: %w", route, err)
	}
	return c.buf.Bytes(), resp.StatusCode, nil
}

func (c *conn) post(ctx context.Context, route string, body []byte) ([]byte, int, error) {
	return c.do(ctx, http.MethodPost, route, body)
}

// parseMatches decodes an NDJSON match stream and insists on the done
// marker, like the library's own client.
func parseMatches(body []byte) ([]bayeslsh.Match, error) {
	var out []bayeslsh.Match
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for i, line := range lines {
		var row struct {
			ID    int     `json:"id"`
			Sim   float64 `json:"sim"`
			Done  bool    `json:"done"`
			Error string  `json:"error"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		switch {
		case row.Error != "":
			return nil, errors.New(row.Error)
		case row.Done:
			if i != len(lines)-1 {
				return nil, errors.New("rows after the done marker")
			}
			return out, nil
		default:
			out = append(out, bayeslsh.Match{ID: row.ID, Sim: row.Sim})
		}
	}
	return nil, errors.New("stream ended without done marker")
}

// complete reports whether a /v1/query response ended with its done
// marker — the cheap well-formedness check for reads whose content
// depends on how far the concurrent writer has got.
func complete(body []byte) bool {
	body = bytes.TrimSpace(body)
	i := bytes.LastIndexByte(body, '\n')
	return bytes.Contains(body[i+1:], []byte(`"done":true`))
}

func sameMatches(a, b []bayeslsh.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// loadStats is what one client connection measured.
type loadStats struct {
	lat      []time.Duration // per completed operation
	at       []time.Time     // readers: when each operation was sent
	late     []time.Duration // paced clients: how far behind schedule each send was
	failed   int
	firstErr string
}

func (s *loadStats) failf(format string, args ...any) {
	s.failed++
	if s.firstErr == "" {
		s.firstErr = fmt.Sprintf(format, args...)
	}
}

// readLoop is a closed-loop reader: the next query goes out when the
// previous response has been read to its last byte. With ref set,
// every response must equal the reference bytes recorded (and later
// verified) for that query; without, it must be a complete stream.
func readLoop(ctx context.Context, c *conn, in *serveInputs, order *queryOrder, ref [][]byte, until time.Time) loadStats {
	var st loadStats
	for time.Now().Before(until) && ctx.Err() == nil {
		i := order.next()
		start := time.Now()
		body, status, err := c.post(ctx, "/v1/query", in.queries[i].body)
		st.lat = append(st.lat, time.Since(start))
		st.at = append(st.at, start)
		switch {
		case err != nil:
			st.failf("query %d: %v", i, err)
		case status != http.StatusOK:
			st.failf("query %d: status %d: %s", i, status, bytes.TrimSpace(body))
		case ref != nil && !bytes.Equal(body, ref[i]):
			st.failf("query %d: response differs from its verified reference", i)
		case ref == nil && !complete(body):
			st.failf("query %d: stream ended without done marker", i)
		}
	}
	return st
}

// openLoop sends queries on a fixed schedule regardless of completions
// (each on its own goroutine, so a stall queues instead of pausing the
// schedule) and times each from when it was due.
func openLoop(ctx context.Context, base string, in *serveInputs, order *queryOrder, rate int, d time.Duration) loadStats {
	var (
		st loadStats
		mu sync.Mutex
		wg sync.WaitGroup
	)
	tr := &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	start := time.Now()
	n := int(d.Seconds() * float64(rate))
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * time.Second / time.Duration(rate))
		time.Sleep(time.Until(due))
		late := time.Since(due)
		i := order.next()
		wg.Add(1)
		//apsslint:allow gohygiene an open loop needs a sender per arrival so that a stalled response cannot delay the schedule; bounded by rate x duration and joined by wg.Wait below
		go func() {
			defer wg.Done()
			c := &conn{hc: hc, tr: tr, base: base}
			body, status, err := c.post(ctx, "/v1/query", in.queries[i].body)
			lat := time.Since(due)
			mu.Lock()
			defer mu.Unlock()
			st.lat = append(st.lat, lat)
			st.late = append(st.late, late)
			if err != nil || status != http.StatusOK || !complete(body) {
				st.failf("open-loop query %d: status %d, err %v", i, status, err)
			}
		}()
	}
	wg.Wait()
	return st
}

// writeLoop is the paced writer: op k is due k/writeRate seconds after
// the start and timed from then, so a stall shows as latency on the
// ops queued behind it. It returns how many ops of the schedule ran.
func writeLoop(ctx context.Context, c *conn, in *serveInputs, n0 int, ops []writeOp, until time.Time) (loadStats, int) {
	var st loadStats
	start := time.Now()
	done := 0
	for ; done < len(ops) && ctx.Err() == nil; done++ {
		due := start.Add(time.Duration(done) * time.Second / writeRate)
		if !due.Before(until) {
			break
		}
		time.Sleep(time.Until(due))
		st.late = append(st.late, time.Since(due))
		op := ops[done]
		if op.add >= 0 {
			body, status, err := c.post(ctx, "/v1/add", in.adds[op.add].body)
			st.lat = append(st.lat, time.Since(due))
			var got struct {
				ID *int `json:"id"`
			}
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &got) != nil || got.ID == nil || *got.ID != n0+op.add {
				st.failf("add %d: status %d, err %v, body %s (want id %d)", op.add, status, err, bytes.TrimSpace(body), n0+op.add)
			}
			continue
		}
		body, status, err := c.post(ctx, "/v1/delete", []byte(`{"id":`+strconv.Itoa(op.del)+`}`))
		st.lat = append(st.lat, time.Since(due))
		var got struct {
			Deleted bool `json:"deleted"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &got) != nil || !got.Deleted {
			st.failf("delete %d: status %d, err %v, body %s", op.del, status, err, bytes.TrimSpace(body))
		}
	}
	return st, done
}

// serveRun is one started daemon plus the per-query reference
// responses recorded by the warm pass.
type serveRun struct {
	proc *serverProc
	ref  [][]byte
}

// serveSetup is set-up once: (serve_read) build the v3 snapshot;
// start the daemon and wait until /v1/stats answers; send every
// distinct query once on one connection. The warm pass is where lazy
// signature fills and a snapshot's first-touch verification land, so
// work moved out of the timed phase into them still shows in setup_s.
func serveSetup(rc *runCtx, spec serveSpec, in *serveInputs, corpusPath string) (*serveRun, time.Duration, error) {
	start := time.Now()
	var args []string
	if spec.snapshot {
		snap := filepath.Join(rc.workDir, "corpus.v3.snap")
		build := exec.CommandContext(rc.ctx, rc.apss, "build", "-file", corpusPath, "-t", fmt.Sprint(serveThreshold),
			"-parallel", strconv.Itoa(workers), "-format", "v3", "-out", snap)
		if out, err := build.CombinedOutput(); err != nil {
			return nil, 0, fmt.Errorf("apss build: %w\n%s", err, out)
		}
		args = []string{"-index", snap}
	} else {
		args = []string{"-file", corpusPath, "-t", fmt.Sprint(serveThreshold)}
		if spec.cache > 0 {
			args = append(args, "-cache-size", strconv.Itoa(spec.cache))
		}
		if spec.shards > 1 {
			args = append(args, "-shards", strconv.Itoa(spec.shards))
		}
	}
	proc, err := startServer(rc.ctx, rc.apss, args...)
	if err != nil {
		return nil, 0, err
	}
	run := &serveRun{proc: proc, ref: make([][]byte, len(in.queries))}
	c := newConn(proc.base)
	defer c.close()
	for i, q := range in.queries {
		body, status, err := c.post(rc.ctx, "/v1/query", q.body)
		if err != nil || status != http.StatusOK {
			proc.stop()
			return nil, 0, fmt.Errorf("warm pass, query %d: status %d, err %v: %s", i, status, err, bytes.TrimSpace(body))
		}
		run.ref[i] = bytes.Clone(body)
	}
	return run, time.Since(start), nil
}

// load is what the connections of one timed phase measured.
type load struct {
	readers []loadStats
	writer  loadStats
	written int // ops of the write schedule that ran
	rss     []rssSample
	start   time.Time
	length  time.Duration // the phase as asked for; elapsed also holds the last responses
	elapsed time.Duration
}

// rssSample is the daemon's resident set at one moment of a phase.
type rssSample struct {
	at time.Time
	mb float64
}

// reads pools the readers' latencies.
func (l load) reads() []time.Duration {
	var all []time.Duration
	for _, st := range l.readers {
		all = append(all, st.lat...)
	}
	return all
}

// windows cuts the phase into its whole windows of the given width and
// returns, for each, the latencies in ms of the queries sent in it,
// ascending.
func (l load) windows(width time.Duration) [][]float64 {
	ws := make([][]float64, l.length/width)
	for _, st := range l.readers {
		for i, at := range st.at {
			if k := int(at.Sub(l.start) / width); k < len(ws) {
				ws[k] = append(ws[k], ms(st.lat[i]))
			}
		}
	}
	for _, w := range ws {
		sort.Float64s(w)
	}
	return ws
}

// rssPeaks returns the highest resident-set sample of each whole window.
func (l load) rssPeaks(width time.Duration) []float64 {
	peaks := make([]float64, l.length/width)
	for _, s := range l.rss {
		if k := int(s.at.Sub(l.start) / width); k < len(peaks) {
			peaks[k] = max(peaks[k], s.mb)
		}
	}
	return peaks
}

// overWindows is the median over the windows of f applied to each.
func overWindows(ws [][]float64, f func(sorted []float64) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	return median(vals)
}

// sampleRSS reads a process's resident set every rssEvery until the
// given time. A read that fails (the process is gone) ends the series;
// the caller's own checks report a dead daemon.
func sampleRSS(ctx context.Context, pid int, until time.Time) []rssSample {
	var out []rssSample
	for now := time.Now(); now.Before(until); now = time.Now() {
		mb, err := procStatusMB(pid, "VmRSS")
		if err != nil {
			break
		}
		out = append(out, rssSample{now, mb})
		select {
		case <-ctx.Done():
			return out
		case <-time.After(rssEvery):
		}
	}
	return out
}

// drive runs one closed-loop phase of length d against a started
// daemon: the given number of reader connections, plus the paced
// writer on a connection of its own when ops is not nil.
func drive(rc *runCtx, spec serveSpec, in *serveInputs, run *serveRun, readers int, ops []writeOp, d time.Duration) load {
	ld := load{readers: make([]loadStats, readers), length: d}
	ref := run.ref
	if ops != nil {
		ref = nil // answers change as the writer proceeds
	}
	// One pool worker per connection — the readers, then the writer —
	// and one that samples the daemon's resident set.
	conns := readers
	if ops != nil {
		conns++
	}
	ld.start = time.Now()
	until := ld.start.Add(d)
	// A canceled run surfaces through rc.ctx at the caller.
	_ = shard.RunCtx(rc.ctx, conns+1, conns+1, 1, func(k, _, _ int) {
		if k == conns {
			ld.rss = sampleRSS(rc.ctx, run.proc.cmd.Process.Pid, until)
			return
		}
		c := newConn(run.proc.base)
		defer c.close()
		if k == readers {
			ld.writer, ld.written = writeLoop(rc.ctx, c, in, len(in.corpus.Vecs), ops, until)
			return
		}
		ld.readers[k] = readLoop(rc.ctx, c, in, newQueryOrder(rc.seed, k, len(in.queries), spec.zipf), ref, until)
	})
	ld.elapsed = time.Since(ld.start)
	return ld
}

func runServe(rc *runCtx) (*result, error) {
	spec := serveSpecs[rc.workload]
	in, err := genServe(rc.seed)
	if err != nil {
		return nil, err
	}
	corpusPath := filepath.Join(rc.workDir, "corpus.vec")
	if err := os.WriteFile(corpusPath, in.corpusText, 0o644); err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	if rc.trace {
		return traceServe(rc, spec, in, corpusPath)
	}
	res := newResult(endToEnd)

	var (
		setups []float64
		run    *serveRun
	)
	for i := 0; i < serveSetups; i++ {
		if run != nil {
			if err := run.proc.stop(); err != nil {
				return nil, fmt.Errorf("stop server after set-up %d: %w", i, err)
			}
		}
		var d time.Duration
		if run, d, err = serveSetup(rc, spec, in, corpusPath); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer run.proc.stop()
	res.set("setup_s", median(setups))
	res.note("setup_s", "median of %d set-ups", len(setups))

	// The timed phase: a closed loop on exactly two connections.
	n0 := len(in.corpus.Vecs)
	var ops []writeOp
	readers := clients
	if spec.writer {
		ops = writeSchedule(rc.seed, n0, len(in.adds))
		readers--
	}
	ld := drive(rc, spec, in, run, readers, ops, rc.seconds)
	if err := rc.ctx.Err(); err != nil {
		return nil, err
	}
	res.tally(append(ld.readers, ld.writer)...)
	reads, ws := ld.reads(), ld.windows(serveWindow)
	whole := durationsMS(reads)
	res.set("op_p50_ms", overWindows(ws, median))
	res.set("op_tail_ms", overWindows(ws, func(w []float64) float64 { return percentile(w, servePct) }))
	res.set("ops_per_s", overWindows(ws, func(w []float64) float64 { return float64(len(w)) / serveWindow.Seconds() }))
	res.note("op_p50_ms", "median of %d %v windows; %d queries, whole run %.4g ms", len(ws), serveWindow, len(reads), median(whole))
	res.note("op_tail_ms", "p%d, median of the windows; whole run p99 %.4g ms (supports p%g)", servePct, percentile(whole, 99), supportedTail(len(reads)))
	beside := ""
	if spec.writer {
		beside = fmt.Sprintf(" beside %d writes", ld.written)
	}
	res.note("ops_per_s", "queries/s%s, median of the windows; whole run %.4g", beside, float64(len(reads))/ld.elapsed.Seconds())
	hwm, err := procStatusMB(run.proc.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	res.set("mem_peak_mb", median(ld.rssPeaks(serveWindow)))
	res.note("mem_peak_mb", "highest of the %v samples in a window, median of the windows; VmHWM %.4g MB", rssEvery, hwm)

	var q quality
	if spec.writer {
		q, err = checkMixed(rc, in, run.proc.base, ops[:ld.written])
	} else {
		q, err = checkReads(rc, in, run.ref)
	}
	if err != nil {
		return nil, err
	}
	if err := run.proc.stop(); err != nil {
		res.fail("apss serve did not drain cleanly: %v\n%s", err, run.proc.stderr)
	}
	q.report(res)
	return res, nil
}

// truthIndex finds the exact neighbours of a query among a fixed set
// of unit vectors without comparing it to every one: postings
// accumulate the dot products of the vectors that share a feature with
// the query, and the few that come near the threshold are confirmed
// with the library's exact cosine.
type truthIndex struct {
	vec      func(id int) vector.Vector
	postings map[uint32][]posting
	acc      []float64
	touched  []int
}

type posting struct {
	id int
	w  float64
}

func newTruthIndex(ids []int, maxID int, vec func(id int) vector.Vector) *truthIndex {
	t := &truthIndex{vec: vec, postings: make(map[uint32][]posting), acc: make([]float64, maxID)}
	for _, id := range ids {
		v := vec(id)
		for i, f := range v.Ind {
			t.postings[f] = append(t.postings[f], posting{id, v.Val[i]})
		}
	}
	return t
}

// neighbours returns the ids whose exact cosine to q is at least the
// serving threshold, with that cosine.
func (t *truthIndex) neighbours(q vector.Vector) map[int]float64 {
	for i, f := range q.Ind {
		for _, p := range t.postings[f] {
			if t.acc[p.id] == 0 {
				t.touched = append(t.touched, p.id)
			}
			t.acc[p.id] += q.Val[i] * p.w
		}
	}
	out := make(map[int]float64)
	for _, id := range t.touched {
		// The slack covers the vectors' norms being 1 only to rounding.
		if t.acc[id] >= serveThreshold-1e-6 {
			if s := exact.Cosine.Sim(q, t.vec(id)); s >= serveThreshold {
				out[id] = s
			}
		}
		t.acc[id] = 0
	}
	t.touched = t.touched[:0]
	return out
}

// judgeMatches scores the reported matches of one query against its
// exact neighbours.
func (q *quality) judgeMatches(t *truthIndex, query vector.Vector, got []bayeslsh.Match) {
	truth := t.neighbours(query)
	q.truePairs += len(truth)
	q.reported += len(got)
	for _, m := range got {
		s, ok := truth[m.ID]
		if ok {
			q.found++
		} else {
			s = exact.Cosine.Sim(query, t.vec(m.ID))
		}
		if math.Abs(m.Sim-s) >= delta {
			q.offBy++
		}
	}
}

// checkReads verifies a read-only serving run: the reference response
// of every distinct query must hold exactly the matches an in-process
// Index.Query over the same corpus and options returns, bit for bit.
// Every timed response was compared byte-wise with its reference, so
// this covers them all.
func checkReads(rc *runCtx, in *serveInputs, ref [][]byte) (quality, error) {
	ix, err := bayeslsh.NewIndex(in.ds, bayeslsh.Cosine, engineCfg, serveOpts)
	if err != nil {
		return quality{}, fmt.Errorf("in-process reference index: %w", err)
	}
	all := make([]int, len(in.corpus.Vecs))
	for i := range all {
		all[i] = i
	}
	truth := newTruthIndex(all, len(all), func(id int) vector.Vector { return in.corpus.Vecs[id] })
	var q quality
	for i, query := range in.queries {
		want, err := ix.QueryContext(rc.ctx, query.q, bayeslsh.QueryOptions{})
		if err != nil {
			return quality{}, fmt.Errorf("in-process reference query %d: %w", i, err)
		}
		got, err := parseMatches(ref[i])
		if err != nil {
			q.problems = append(q.problems, fmt.Sprintf("query %d: malformed response: %v", i, err))
			continue
		}
		if !sameMatches(got, want) {
			q.problems = append(q.problems, fmt.Sprintf("query %d: served %d matches, in-process Index.Query %d, or ids/sims differ", i, len(got), len(want)))
		}
		q.judgeMatches(truth, query.vec, got)
	}
	q.finish()
	return q, nil
}

// checkMixed verifies a run with a writer. The writer was the only
// mutator, so after /v1/compact the daemon must answer sample queries
// exactly like an in-process LiveIndex that replayed the same adds and
// deletes and was compacted too.
func checkMixed(rc *runCtx, in *serveInputs, base string, ops []writeOp) (quality, error) {
	li, err := bayeslsh.NewLiveIndex(in.ds, bayeslsh.Cosine, engineCfg, serveOpts, bayeslsh.LiveConfig{})
	if err != nil {
		return quality{}, fmt.Errorf("in-process reference live index: %w", err)
	}
	defer li.Close()
	n0 := len(in.corpus.Vecs)
	live := make(map[int]bool, n0+len(ops))
	for id := 0; id < n0; id++ {
		live[id] = true
	}
	for _, op := range ops {
		if op.add >= 0 {
			id, err := li.Add(in.adds[op.add].q)
			if err != nil || id != n0+op.add {
				return quality{}, fmt.Errorf("reference replay: add %d got id %d, err %v", op.add, id, err)
			}
			live[id] = true
			continue
		}
		if !li.Delete(op.del) {
			return quality{}, fmt.Errorf("reference replay: delete %d reported absent", op.del)
		}
		delete(live, op.del)
	}
	if err := li.Compact(); err != nil {
		return quality{}, fmt.Errorf("reference replay: compact: %w", err)
	}
	ids := make([]int, 0, len(live))
	for id := 0; id < n0+len(in.adds); id++ {
		if live[id] {
			ids = append(ids, id)
		}
	}
	vec := func(id int) vector.Vector {
		if id < n0 {
			return in.corpus.Vecs[id]
		}
		return in.adds[id-n0].vec
	}

	truth := newTruthIndex(ids, n0+len(in.adds), vec)

	c := newConn(base)
	defer c.close()
	if body, status, err := c.post(rc.ctx, "/v1/compact", []byte("{}")); err != nil || status != http.StatusOK {
		return quality{}, fmt.Errorf("/v1/compact: status %d, err %v: %s", status, err, bytes.TrimSpace(body))
	}
	var q quality
	for i, query := range in.queries[:finalSamples] {
		want, err := li.QueryContext(rc.ctx, query.q, bayeslsh.QueryOptions{})
		if err != nil {
			return quality{}, fmt.Errorf("reference replay: query %d: %w", i, err)
		}
		body, status, err := c.post(rc.ctx, "/v1/query", query.body)
		if err != nil || status != http.StatusOK {
			q.problems = append(q.problems, fmt.Sprintf("final query %d: status %d, err %v", i, status, err))
			continue
		}
		got, err := parseMatches(body)
		if err != nil {
			q.problems = append(q.problems, fmt.Sprintf("final query %d: malformed response: %v", i, err))
			continue
		}
		if !sameMatches(got, want) {
			q.problems = append(q.problems, fmt.Sprintf("final query %d after %d writes: served %d matches, replayed LiveIndex %d, or ids/sims differ", i, len(ops), len(got), len(want)))
		}
		q.judgeMatches(truth, query.vec, got)
	}
	q.finish()
	return q, nil
}
